"""Sparse linear-program model, a self-contained revised simplex solver (a
dual simplex, then a primal cleanup) with a spanning-tree path for
transportation problems, and a deterministic LP text format.

All variables are nonnegative; the first walk over the model
(``_read_rows``) turns each finite upper bound into a row ``x_j <= u``, and
no later stage reads a bound.  Before the simplex, an exact presolve
shrinks the program, and logs each step: it fixes the variables the model
forces ("fix": those an equality row with one live term pins, and every
variable of a row with right-hand side 0 whose terms all forbid a positive
value), substituting each value into the other rows; it folds a variable
that a doubleton equation ``a x_k + b x_j = 0`` ties to another as ``x_j =
t x_k``, ``t > 0``, into that one, with its cost ("agg"); and it drops
every row left without a live term, after checking it ("drop").  Colour
refinement then finds the coarsest equitable partition of what is left,
and the simplex runs on the quotient: one column per class of variables,
one row per class of rows.  ``_columns`` builds it in one pass over the
presolved rows, straight into the simplex's columns: each column's terms
in row order, a row with a negative right-hand side negated.  Its answer
is basic in the quotient and, lifted back, constant on each class; a
program without symmetry reaches the simplex as the presolve left it.  The
folded variables are then recovered from the log, last fold first.

Each row the simplex gets has one logical: a slack for ``<=``, a surplus for
``>=``, and for ``=`` one fixed at 0, which may leave the basis but never
enters.  Negative costs are shifted to 0, so the all-logical basis is dual
feasible with y = 0.  A least-cost triangular crash (``_crash``) puts
structural columns of cost 0 in place of the logicals of ``=`` and ``>=``
rows, each in the row of its minimum ratio; each placed column misses the
rows taken before it, so the basis is triangular and nonsingular, and y
stays 0.  Where no cost is negative and the start is primal feasible, it
is the answer (``_start_is_optimal``): its basic columns cost 0, so it
attains the bound ``c.x >= 0``, and y = 0 certifies it.  No inverse is
built for it, and no BLAS call is made.  Otherwise the other structural
costs are raised by a fixed tiny pattern, against ties in the dual ratio
test.  From that start a dual simplex (``_Simplex.dual``) runs on the exact
right-hand side until the basis is primal feasible, or a row with no column
to mend it proves the program infeasible.  The primal simplex
(``_Simplex.run``) then takes that basis to the optimum of the true costs:
it enters the most negative reduced cost (Dantzig's rule), leaving by the
plain minimum ratio, and after a step of 0 takes Bland's rule, which makes
every run of such steps finite.  The simplex keeps an explicit basis
inverse: it inverts the starting basis once, reinverts periodically and
before every verdict, and the final polish reuses the last inverse.  Every
answer is then certified: primal by its residuals on the original model,
dual by the reduced costs of the quotient's final basis (the quotient has
the model's optimum).  The pattern is fixed, so repeated solves of the same
model are bit-identical.

A program that the presolve leaves as a transportation problem
(``_transportation``: only equations, every coefficient 1, every live
variable in exactly two rows, the rows split into supplies and demands by
a 2-colouring, ``_components``) takes neither the quotient nor the
simplex.  A transportation simplex on a spanning-tree basis (``_Tree``,
run by ``_solve_tree``) solves it with no inverse and no BLAS call (numpy
only prices the variables of a larger program, elementwise), so its
answer does not depend on the BLAS thread count.  It starts from the least-cost rule that the crash uses too
(``_least_cost``), and hangs every row the start leaves open from a root
by an artificial edge; artificials cost (1, 0) against a variable's
(0, c), compared lexicographically, so one pass decides feasibility.  After
a step of 0 it enters by Bland's rule, which makes every run of such steps
finite.  The flows are read off the final tree from the exact right-hand
sides, and the answer is certified as the simplex's is: by its residuals
on the original model, and by the reduced costs ``c_ij - u_i - v_j`` under
the potentials that solve ``u_i + v_j = c_ij`` on the final tree.
``transport.optimal_coupling`` calls ``_solve_tree`` on its coupling
directly, with no model, presolve or structural test, and checks the
coupling's marginals itself.
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .errors import LpError, LpNumericalError

__all__ = ["LpModel", "LpSolution", "solve", "export_lp", "parse_lp"]

INF = math.inf

# Tolerances.  A "relative" one is scaled by max(1, |v|) of the value v it
# names; the others are absolute.
PIVOT_TOL = 1e-10  # smallest direction or tableau-row entry the ratio tests pivot on
FEAS_TOL = 1e-7  # residual _recheck allows; a violation (or tree artificial mass) that means infeasible
OPT_TOL = 1e-11  # a reduced cost below -OPT_TOL enters the basis (the tree's: relative to max|c|)
DUAL_TOL = 1e-9  # relative to max|c|: the final basis's reduced costs must reach -DUAL_TOL
GUARD_TOL = 1e-7  # smallest element the crash pivots on
PRIMAL_TOL = 1e-9  # a basic value out of its bounds by more than max(PRIMAL_TOL,
ROUND_TOL = 1e-14  # ROUND_TOL * max|b|) leaves in the dual simplex; the 2nd term covers rounding
SNAP_TOL = 1e-12  # relative to max x_B: smaller polished basic values are exact zeros
PERTURB = 1e-7  # relative to c_j: size of the cost perturbation of the dual simplex
REFACTOR_EVERY = 256
LOOP_PRICING = 64  # the tree prices at most this many variables in a Python loop

_RELATIONS = ("=", "<=", ">=")


@dataclass
class LpModel:
    """min c.x subject to rows (=, <=, >=) and 0 <= x <= upper."""

    var_names: list[str] = field(default_factory=list)
    var_upper: list[float] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    constraints: list[tuple[str, list[tuple[int, float]], str, float]] = field(
        default_factory=list
    )

    def add_variable(self, name: str, upper: float = INF) -> int:
        self.var_names.append(name)
        self.var_upper.append(upper)
        return len(self.var_names) - 1

    def add_objective(self, idx: int, coef: float) -> None:
        if coef:
            self.objective[idx] = self.objective.get(idx, 0.0) + coef

    def add_constraint(self, name, terms, rel, rhs) -> None:
        self.constraints.append((name, list(terms), rel, float(rhs)))

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def validate(self) -> None:
        """Raise LpError at the model's first fault, in this order: variable
        names that repeat; then constraint by constraint a repeated name, a
        bad relation, a non-finite right-hand side, and term by term an
        unknown variable or a non-finite coefficient; then the objective's
        terms; then a negative or NaN upper bound.  The checks are those of
        ``_read_rows``, the presolve's first walk."""
        _read_rows(self)


@dataclass(eq=False)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None
    values: np.ndarray | None
    var_names: list[str]
    fixed: int = 0  # variables the presolve fixed
    dropped_rows: int = 0  # rows the presolve dropped empty
    # variables the presolve folded into another through a doubleton
    # equation, which it dropped too
    aggregated: int = 0
    # variables and rows that the colour classes folded into another member
    # of their class: the quotient program has that many fewer of each
    merged_vars: int = 0
    merged_rows: int = 0
    pivots: int = 0  # simplex (or tree) pivots, of both passes
    # the pivots of the two passes, which sum to ``pivots``: on the simplex
    # path those of the dual simplex and of the primal cleanup; on the tree
    # path those that enter on a negative artificial price and the others
    phase_pivots: tuple[int, int] = (0, 0)
    # basis inversions: 0 on the tree path, and on the simplex path when the
    # crash start is already optimal (``_start_is_optimal``)
    refactors: int = 0
    # columns the crash put into the starting basis in place of logicals;
    # not pivots (on the tree path: the cells of the least-cost start)
    crashed: int = 0
    # which solver answered: "simplex", or "transport" for a program the
    # presolve leaves as a transportation problem (``_transportation``)
    method: str = "simplex"

    def value(self, name: str) -> float:
        return float(self.values[self.var_names.index(name)])


class _SparseCols:
    """Column-compressed matrix: just enough for simplex pricing.  Built
    from each column's (row, coefficient) terms, in row order."""

    def __init__(self, m, cols):
        counts = [len(terms) for terms in cols]
        self.m = m
        self.ncols = len(cols)
        self.rows = np.array([i for terms in cols for i, _ in terms], dtype=int)
        self.vals = np.array([a for terms in cols for _, a in terms], dtype=float)
        self.colids = np.repeat(np.arange(self.ncols), counts)
        self.indptr = np.cumsum([0] + counts)

    def column(self, j):
        sl = slice(self.indptr[j], self.indptr[j + 1])
        return self.rows[sl], self.vals[sl]

    def transpose_dot(self, y):
        """A^T y for a dense vector y, via one pass over the nonzeros."""
        return np.bincount(self.colids, weights=self.vals * y[self.rows], minlength=self.ncols)

    def dense_submatrix(self, cols):
        """The columns ``cols`` as a dense m x len(cols) matrix, gathered in
        one call; a column holds each row at most once (the presolve
        coalesces duplicate terms)."""
        cols = np.asarray(cols, dtype=int)
        starts = self.indptr[cols]
        counts = self.indptr[cols + 1] - starts
        offsets = np.cumsum(counts) - counts
        nz = np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))
        out = np.zeros((self.m, len(cols)))
        out[self.rows[nz], np.repeat(np.arange(len(cols)), counts)] = self.vals[nz]
        return out


def _primal_tol(bmax):
    """How far a basic value may be out of its bounds at the dual simplex's
    verdict, on a right-hand side of largest magnitude ``bmax``."""
    return max(PRIMAL_TOL, ROUND_TOL * bmax)


def _iteration_cap(m):
    """The most iterations a simplex or tree run on m rows may take: a
    guard against numerical breakdown, not a limit the rules rely on."""
    return max(5000, 200 * (m + 1))


class _Simplex:
    """Revised simplex on rows A x = b, x >= 0, with sparse columns and an
    explicit, periodically rebuilt basis inverse.  It starts from ``basis``,
    one column per row, which it inverts.  The columns that ``fixed`` marks
    are held at 0: one may be basic, and leaves, but never enters."""

    def __init__(self, A: _SparseCols, b, basis):
        self.A = A
        self.b = b
        self.m = A.m
        self.n = A.ncols
        self.max_iter = _iteration_cap(self.m)
        self.primal_tol = _primal_tol(float(np.abs(b).max(initial=0.0)))
        self.pivots = 0
        self.refactors = 0
        self._ratios = np.empty(self.m)
        self._ger = np.empty((self.m, self.m))
        self.basis = np.asarray(basis, dtype=int)
        self.refactor()

    def refactor(self):
        # B is kept for the polish, which runs on the last inverted basis
        self.B = self.A.dense_submatrix(self.basis)
        try:
            self.Binv = np.linalg.inv(self.B)
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular basis during refactorization: {exc}")
        self.xB = self.Binv @ self.b
        self.dirty = False
        self.refactors += 1

    def direction(self, j):
        r, v = self.A.column(j)
        return self.Binv[:, r] @ v

    def pivot(self, leave_pos, enter_col, d, step):
        self.basis[leave_pos] = enter_col
        pivrow = self.Binv[leave_pos] / d[leave_pos]
        np.multiply(d[:, None], pivrow[None, :], out=self._ger)
        np.subtract(self.Binv, self._ger, out=self.Binv)
        self.Binv[leave_pos] = pivrow
        self.pivots += 1
        if self.pivots % REFACTOR_EVERY == 0:
            self.refactor()
        else:
            self.dirty = True
            self.xB -= step * d
            self.xB[leave_pos] = step

    def dual(self, c, fixed):
        """Dual simplex from a basis whose reduced costs under c are all
        >= 0, until no basic value is out of its bounds by more than
        primal_tol; returns 'optimal' or 'infeasible'.

        The leaving row is the one whose violation v (-x_B below 0, |x_B|
        for a fixed column) has the largest v^2 / w, w the squared norm of
        its row of B^-1 (dual steepest edge, with exact weights; Forrest &
        Goldfarb, Math. Prog. 57, 1992).  The entering column is the plain
        dual ratio test's over the columns whose entry in that tableau row
        moves the value back towards its bound, the first of equal ratios.
        A row violated by more than FEAS_TOL with no such column proves the
        program infeasible: ±(its row of B^-1) is a Farkas ray.  A smaller
        violation with none is rounding: the dual stops there, and the snap
        after the polish zeroes it and ``_recheck`` judges the point.  Both
        verdicts rest on a fresh inverse."""
        blocked = fixed.nonzero()[0]
        for _ in range(self.max_iter):
            held = fixed[self.basis]
            viol = np.where(held, np.abs(self.xB), -self.xB)
            weights = np.einsum("ij,ij->i", self.Binv, self.Binv)
            score = np.where(viol > self.primal_tol, viol * viol / weights, 0.0)
            r = int(score.argmax())
            if not score[r] > 0.0:
                if self.dirty:
                    self.refactor()
                    continue
                return "optimal"
            sign = -1.0 if held[r] and self.xB[r] > 0.0 else 1.0
            alpha = sign * self.A.transpose_dot(self.Binv[r])
            alpha[blocked] = 0.0
            alpha[self.basis] = 0.0
            cand = (alpha < -PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                if self.dirty:
                    self.refactor()
                    continue
                return "infeasible" if viol[r] > FEAS_TOL else "optimal"
            reduced = c[cand] - self.A.transpose_dot(c[self.basis] @ self.Binv)[cand]
            j = int(cand[np.argmin(np.maximum(reduced, 0.0) / -alpha[cand])])
            d = self.direction(j)
            self.pivot(r, j, d, self.xB[r] / d[r])
        raise LpNumericalError(f"dual simplex exceeded {self.max_iter} iterations")

    def run(self, c, fixed):
        """Minimize c.x over the current system from a primal feasible basis;
        returns 'optimal' or 'unbounded'.

        Each iteration prices once and enters the column with the most
        negative reduced cost (Dantzig's rule), the first of equal ones.  The
        leaving row is the plain minimum ratio, the first of equal ones; a
        basic fixed column blocks any step that would move it.  A pivot
        that follows a step of 0 takes Bland's rule instead (Bland, 1977):
        the first column that prices below -OPT_TOL enters, and the least
        basic column among the minimum ratios leaves, so a run of such
        steps is finite.  Basic values are clipped at 0.  Before "optimal"
        or "unbounded" is returned the inverse is rebuilt and the iteration
        re-priced, so both verdicts rest on a fresh inverse.  A NaN reduced
        cost raises.

        The iteration is written for few array calls, since on small
        programs their dispatch, not arithmetic, is the cost: the columns
        that may not enter get reduced cost 0 and one ``argmin`` picks the
        entering one; rows with no positive direction entry get ratio inf
        and one ``argmin`` picks the leaving one.
        """
        cB = c[self.basis]
        blocked = fixed.nonzero()[0]
        held = fixed[self.basis].nonzero()[0]
        ratios = self._ratios
        bland = False
        for _ in range(self.max_iter):
            np.maximum(self.xB, 0.0, out=self.xB)
            reduced = c - self.A.transpose_dot(cB @ self.Binv)
            reduced[blocked] = 0.0
            reduced[self.basis] = 0.0
            j = int(reduced.argmin())
            if not reduced[j] < -OPT_TOL:
                if np.isnan(reduced[j]):
                    raise LpNumericalError(f"reduced cost of column {j} is NaN")
                if self.dirty:
                    self.refactor()
                    continue
                return "optimal"
            if bland:
                j = int((reduced < -OPT_TOL).argmax())
            d = self.direction(j)
            ratios.fill(INF)
            np.divide(self.xB, d, out=ratios, where=d > PIVOT_TOL)
            if held.size:
                ratios[held[np.abs(d[held]) > PIVOT_TOL]] = 0.0
            leave_pos = int(ratios.argmin())
            step = float(ratios[leave_pos])
            if step == INF:
                if self.dirty:
                    self.refactor()
                    continue
                return "unbounded"
            if bland:
                ties = (ratios == step).nonzero()[0]
                leave_pos = int(ties[self.basis[ties].argmin()])
            self.pivot(leave_pos, j, d, step)
            cB[leave_pos] = c[j]
            held = held[held != leave_pos]
            bland = step == 0.0
        raise LpNumericalError(f"simplex exceeded {self.max_iter} iterations")


@dataclass
class _Presolved:
    """What ``_presolve`` leaves for the simplex, and what it took away.

    ``rows`` holds the surviving rows as ``(coef, rel, rhs)``, ``coef`` a dict
    from each live variable of the row to its nonzero coefficient, fixed
    values substituted into ``rhs`` and aggregated variables into ``coef``.
    ``objective`` holds the live variables' costs, with those of the
    aggregated ones folded in.  ``eliminations`` lists the reductions in the
    order they were made:

    * ``("fix", var, value, row)``: ``row`` is the row that forced the
      value, an equality with one live term or a zero-forcing row;
    * ``("agg", j, k, t, row)``: the doubleton ``row`` gave ``x_j = t x_k``
      with ``t > 0``, and ``x_k`` took ``x_j``'s place;
    * ``("drop", row)``: a row left without a live term."""

    rows: list
    values: list  # the fixed value of each fixed variable, 0 elsewhere
    is_fixed: list  # fixed or aggregated: no longer a variable of the program
    objective: dict
    eliminations: list
    infeasible: bool = False

    def recover(self, values):
        """Set each aggregated variable from the one that took its place,
        in reverse elimination order, so that a chain resolves from its
        end."""
        for e in reversed(self.eliminations):
            if e[0] == "agg":
                _, j, k, t, _ = e
                values[j] = t * values[k]


def _row_ok(rel, resid):
    """Whether a row's residual (left side minus right side) meets its
    relation within FEAS_TOL."""
    return (rel == "<=" or resid >= -FEAS_TOL) and (rel == ">=" or resid <= FEAS_TOL)


def _forces_zero(coef, rel):
    """Whether a row with right-hand side 0 forbids each of its variables
    any positive value: every coefficient positive under ``=`` or ``<=``,
    or every one negative under ``=`` or ``>=``."""
    values = coef.values()
    return (rel != ">=" and min(values) > 0.0) or (rel != "<=" and max(values) < 0.0)


def _read_rows(model: LpModel):
    """The presolve's first walk, which also checks the model as
    ``LpModel.validate`` says, raising at its first fault.  Returns each
    row as ``[coef, rel, rhs]``, ``coef`` a dict from each variable of the
    row to the sum of its coefficients, zero sums dropped, and the rows that
    each variable occurs in; a row ``x_j <= u`` per finite bound comes last."""
    if len(set(model.var_names)) != len(model.var_names):
        raise LpError("variable names are not unique")
    n = model.num_vars
    names = set()
    rows, occurs = [], [[] for _ in range(n)]
    for i, (cname, terms, rel, rhs) in enumerate(model.constraints):
        if cname in names:
            raise LpError(f"duplicate constraint name {cname!r}")
        names.add(cname)
        if rel not in _RELATIONS:
            raise LpError(f"bad relation {rel!r} in constraint {cname!r}")
        if not math.isfinite(rhs):
            raise LpError(f"non-finite right-hand side in constraint {cname!r}")
        for idx, a in terms:
            if not 0 <= idx < n:
                raise LpError(f"constraint {cname!r} references unknown variable {idx}")
            if not math.isfinite(a):
                raise LpError(f"non-finite coefficient in constraint {cname!r}")
        coef = dict(terms)
        if len(coef) < len(terms):
            coef = dict.fromkeys(coef, 0.0)
            for idx, a in terms:
                coef[idx] += a
        if 0.0 in coef.values():
            coef = {idx: a for idx, a in coef.items() if a != 0.0}
        for idx in coef:
            occurs[idx].append(i)
        rows.append([coef, rel, rhs])
    for idx, coef in model.objective.items():
        if not 0 <= idx < n:
            raise LpError(f"objective references unknown variable {idx}")
        if not math.isfinite(coef):
            raise LpError("non-finite objective coefficient")
    for j, u in enumerate(model.var_upper):
        if not u >= 0:  # NaN fails this comparison too
            raise LpError("negative or NaN upper bound")
        if u != INF:
            occurs[j].append(len(rows))
            rows.append([{j: 1.0}, "<=", u])
    return rows, occurs


def _presolve(model: LpModel) -> _Presolved:
    """Fix the variables the model forces, fold those a doubleton equation
    ties to another into it, and drop the rows that empties (Andersen &
    Andersen, *Presolving in linear programming*, Math. Programming 71,
    1995).  Every rule is exact.

    The first walk over the rows (``_read_rows``) also validates the model:
    a faulty one raises ``LpModel.validate``'s error before any reduction.
    Each row's duplicate terms are summed, zero coefficients dropped, and
    each finite upper bound made a row.  Then, until nothing changes:

    * an equality row with one live term ``a x = r`` fixes ``x`` at
      ``max(0.0, r / a)``, which is ``0.0`` where ``r / a`` is ``-0.0``;
    * a row whose right-hand side is exactly 0 and whose terms all forbid a
      positive value (``_forces_zero``) fixes each of its variables at 0;
    * an equality row ``a x_k + b x_j = 0`` with ``k < j`` and ``a``, ``b``
      of opposite sign gives ``x_j = t x_k`` with ``t = -a / b > 0``: ``t
      x_k`` is substituted for ``x_j`` in every row, a coefficient that
      cancels exactly or underflows to 0 is dropped, ``x_k`` takes ``c_k +
      t c_j`` as its cost, and the row is dropped.

    Fixed values are substituted into every row.  A row with no live term
    left is dropped once its residual passes the FEAS_TOL check, else the
    model is infeasible; a bound row so judges a value forced above it,
    and keeps one above it by no more than that check allows.  A row is
    looked at once, the bound rows first, so a zero bound fixes its
    variable at exactly 0; and again each time a substitution leaves it
    with two live terms or fewer or with right-hand side 0."""
    n = model.num_vars
    rows, occurs = _read_rows(model)
    cost = dict(model.objective)
    out = _Presolved([], [0.0] * n, [False] * n, cost, [])
    alive = [True] * len(rows)
    m = len(model.constraints)
    queue = deque([*range(m, len(rows)), *range(m)])

    # a variable's occurrence list may name rows it has since left, by an
    # exact cancellation, so each visit checks that the term is still there
    def fix(j, value, row):
        out.is_fixed[j] = True
        out.values[j] = value
        out.eliminations.append(("fix", j, value, row))
        for i in occurs[j]:
            coef = rows[i][0]
            if alive[i] and j in coef:
                rows[i][2] -= coef.pop(j) * value
                if len(coef) <= 2 or rows[i][2] == 0.0:
                    queue.append(i)

    def aggregate(j, k, t, row):
        alive[row] = False
        out.is_fixed[j] = True
        out.eliminations.append(("agg", j, k, t, row))
        for i in occurs[j]:
            coef = rows[i][0]
            if alive[i] and j in coef:
                a = coef.get(k, 0.0) + coef.pop(j) * t
                if a == 0.0:  # cancels exactly, or the product underflows
                    coef.pop(k, None)
                else:
                    if k not in coef:
                        occurs[k].append(i)
                    coef[k] = a
                if len(coef) <= 2 or rows[i][2] == 0.0:
                    queue.append(i)
        if j in cost:
            cost[k] = cost.get(k, 0.0) + t * cost.pop(j)

    while queue:
        i = queue.popleft()
        if not alive[i]:
            continue
        coef, rel, rhs = rows[i]
        if not coef:
            if not _row_ok(rel, -rhs):
                out.infeasible = True
                return out
            alive[i] = False
            out.eliminations.append(("drop", i))
        elif rel == "=" and len(coef) == 1:
            ((j, a),) = coef.items()
            fix(j, max(0.0, rhs / a), i)
        elif rhs == 0.0 and _forces_zero(coef, rel):
            for j in list(coef):
                fix(j, 0.0, i)
        elif rel == "=" and rhs == 0.0 and len(coef) == 2:
            # the signs differ, else the row would force zeros
            (k, a), (j, b) = sorted(coef.items())
            t = -a / b
            if 0.0 < t < INF:  # not where the quotient overflows or underflows
                aggregate(j, k, t, i)
    out.rows = [row for row, keep in zip(rows, alive) if keep]
    return out


def _refine(pre: _Presolved, live):
    """The coarsest equitable partition of the live variables and the
    surviving rows, by colour refinement (Grohe, Kersting, Mladenov &
    Selman, *Dimension reduction via colour refinement*, ESA 2014).

    A variable starts coloured by its cost, a row by its (relation,
    right-hand side).  Then rows and variables take turns: each is
    recoloured by its colour and the sorted multiset of (colour,
    coefficient) over its terms, comparing floats exactly.  Colours are
    numbered in order of first appearance, so the classes are
    deterministic.  After the variables' first turn, the first turn that
    splits nothing ends it: both partitions are then stable.  Returns the
    colour of each variable (indexed as in the model) and of each row of
    ``pre.rows``, or None when every live variable is alone in its class,
    which the starting colours often show at once."""
    n = len(live)
    vcol = [0] * len(pre.values)
    ids = {}
    for j in live:
        vcol[j] = ids.setdefault(pre.objective.get(j, 0.0), len(ids))
    if len(ids) == n:
        return None
    nv = len(ids)
    rcol = [0] * len(pre.rows)
    ids, cid = {}, {}
    # a term's token is its colour times nc plus the id of its coefficient
    rterms, vterms = [], {j: [] for j in live}
    for r, (coef, rel, rhs) in enumerate(pre.rows):
        rcol[r] = ids.setdefault((rel, rhs), len(ids))
        terms = []
        for j, a in coef.items():
            c = cid.setdefault(a, len(cid))
            terms.append((j, c))
            vterms[j].append((r, c))
        rterms.append(terms)
    nr, nc, vterms = len(ids), len(cid), list(vterms.items())
    stable = False
    while True:
        ids = {}
        for r, terms in enumerate(rterms):
            key = (rcol[r], *sorted([vcol[j] * nc + c for j, c in terms]))
            rcol[r] = ids.setdefault(key, len(ids))
        if stable and len(ids) == nr:
            return vcol, rcol
        nr = len(ids)
        ids = {}
        for j, terms in vterms:
            key = (vcol[j], *sorted([rcol[r] * nc + c for r, c in terms]))
            vcol[j] = ids.setdefault(key, len(ids))
        if len(ids) == n:
            return None
        if len(ids) == nv:
            return vcol, rcol
        nv, stable = len(ids), True


def _columns(pre: _Presolved, live):
    """The program the simplex solves, one column per class of
    ``_refine``'s partition, built in one pass over ``pre.rows``.  Returns
    each column's (row, coefficient) terms, in row order; each column's
    cost; each row's relation and right-hand side; the column of each live
    variable; and the variables and rows that the classes merged.

    A column costs the sum of its members' costs.  Each row class keeps its
    first row, with the coefficients of each variable class summed and
    those that cancel dropped; classes keep their order of first
    appearance.  A row with a negative right-hand side is negated and its
    relation flipped, so every right-hand side is 0 or more.  The
    partition is equitable, so averaging any solution over it gives one of
    equal cost that is constant on each class: the quotient has the same
    optimum, and ``x_j = x̄[column of j]`` lifts its solution back
    (Mladenov, Ahmadi & Kersting, *Lifted linear programming*, AISTATS
    2012).  Without symmetry every live variable and every row is its own
    class, so the simplex sees the presolved program in its order."""
    part = _refine(pre, live)
    if part is None:
        col, rcol = [0] * len(pre.values), range(len(pre.rows))
        for k, j in enumerate(live):
            col[j] = k
    else:
        col, rcol = part
    column = [col[j] for j in live]
    cost = []
    for j, k in zip(live, column):
        if k == len(cost):  # the first member of its class
            cost.append(0.0)
        cost[k] += pre.objective.get(j, 0.0)
    terms = [[] for _ in cost]
    rels, rhs = [], []
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    for r, (coef, rel, b) in enumerate(pre.rows):
        if rcol[r] == len(rels):  # the first row of its class
            summed = {}
            for j, a in coef.items():
                summed[col[j]] = summed.get(col[j], 0.0) + a
            sign = -1.0 if b < 0 else 1.0
            for k, a in summed.items():
                if a != 0.0:
                    terms[k].append((len(rels), sign * a))
            rels.append(flip[rel] if b < 0 else rel)
            rhs.append(sign * b)
    merged = (len(live) - len(cost), len(pre.rows) - len(rels))
    return terms, cost, rels, rhs, column, merged


def _transportation(pre: _Presolved, live):
    """The presolved program as a transportation problem, or None if it is
    not one.  It is one when every row is an equation, every coefficient is
    exactly 1 (so no bound row is left), and every live variable sits in
    exactly two rows, which a 2-colouring of the rows puts on opposite sides
    (the supplies and the demands; ``_components``).  Returns the two rows
    of each live variable, lower first, and the first row of each row's
    connected component."""
    rows = pre.rows
    if not rows:
        return None
    for coef, rel, _ in rows:
        if rel != "=" or set(coef.values()) != {1.0}:
            return None
    ends = {j: [] for j in live}
    for i, (coef, _, _) in enumerate(rows):
        for j in coef:
            ends[j].append(i)
    ends = list(ends.values())
    if any(len(e) != 2 for e in ends):
        return None
    first = _components(len(rows), ends)
    return None if first is None else (ends, first)


def _components(m, ends):
    """The first row of each of ``m`` rows' connected component, in the
    graph whose edges join the two rows ``ends[e]`` of each variable; or
    None if a component holds an odd cycle of rows, which no 2-colouring
    splits into supplies and demands."""
    adj = [[] for _ in range(m)]
    for a, b in ends:
        adj[a].append(b)
        adj[b].append(a)
    side, first = [-1] * m, [0] * m
    for s in range(m):
        if side[s] >= 0:
            continue
        side[s], first[s] = 0, s
        queue = [s]
        for v in queue:  # breadth first: the queue grows as it is read
            for w in adj[v]:
                if side[w] < 0:
                    side[w], first[w] = 1 - side[v], s
                    queue.append(w)
                elif side[w] == side[v]:  # an odd cycle of rows
                    return None
    return first


class _Tree:
    """Transportation simplex on a spanning-tree basis (Dantzig, 1951;
    Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 11): a tree basis
    needs no inverse.

    The nodes are the rows and a root, ``m``.  Edge ``e < n`` is the
    variable with column ``e_a + e_b`` for its rows ``(a, b) = ends[e]``;
    edge ``n + k`` is the artificial of row ``k``, with column ``sigma[k]
    e_k``, and joins ``k`` to the root.  An artificial costs (1, 0) and a
    variable (0, c), compared lexicographically, so one pass minimizes the
    artificial flow first and the cost second: the program is feasible
    exactly when the artificials end empty, and the tree is then optimal.
    The potentials ``(y1, y2)`` solve ``y_a + y_b = (0, c)`` on the tree's
    variables and ``sigma[k] y_k = (1, 0)`` on its artificials; the root has
    none.  A node's potentials are summed along its one path from the root,
    so they depend only on the tree, not on how it was reached.

    An artificial that leaves never re-enters, which keeps both verdicts:
    the program without it keeps every feasible point, and the artificial
    mass cannot fall below 0.  Degeneracy: a pivot that follows a step of 0
    takes Bland's rule (Bland, 1977), so a run of such steps is finite, and
    every other pivot lowers the objective; the loop bound only guards
    against numerical breakdown."""

    refactors = 0  # a tree basis is never inverted

    def __init__(self, rhs, cost, ends, first):
        self.rhs, self.cost, self.ends, self.first = rhs, cost, ends, first
        m, n = len(rhs), len(ends)
        self.m, self.n = m, n
        self.nodes = ends + [(k, m) for k in range(m)]  # the ends of every edge
        self.across = [a ^ b for a, b in self.nodes]  # one end from the other
        self.sigma = [1] * m
        self.flow = [0.0] * (n + m)
        self.tree = []  # the basis: m edges
        self.pivots = 0
        self.phase_pivots = [0, 0]
        self.cells = self._start()

    def _start(self):
        """The least-cost start (``_least_cost``), which never uses a row
        with a negative right-hand side: each placed variable joins the row
        it closes to one still open, so they form a forest; every row left
        open hangs from the root by its artificial, which carries what the
        row has left.  Returns the number of variables placed."""
        n, r, taken = self.n, list(self.rhs), [False] * self.m
        entries = [((a, 1.0), (b, 1.0)) for a, b in self.ends]
        order = sorted(range(n), key=self.cost.__getitem__)  # a stable sort
        for e, _, x in _least_cost(entries, order, r, taken, lambda p, a_p, step: step >= 0.0):
            self.flow[e] = x
            self.tree.append(e)
        cells = len(self.tree)
        for k in range(self.m):
            if not taken[k]:
                self.sigma[k] = 1 if r[k] >= 0.0 else -1
                self.flow[n + k] = abs(r[k])
                self.tree.append(n + k)
        return cells

    def _hang(self):
        """The tree hung from the root: each node's parent, parent edge and
        depth, the nodes in breadth-first order, the potentials, and each
        node's tree edges."""
        m, n, across, cost, sigma = self.m, self.n, self.across, self.cost, self.sigma
        adj = [[] for _ in range(m + 1)]
        for e in self.tree:
            a, b = self.nodes[e]
            adj[a].append(e)
            adj[b].append(e)
        parent, pedge, depth = [m] * (m + 1), [-1] * (m + 1), [0] * (m + 1)
        y1, y2 = [0] * (m + 1), [0.0] * (m + 1)
        order = [m]
        for v in order:
            for e in adj[v]:
                if e != pedge[v]:
                    w = across[e] ^ v
                    parent[w], pedge[w], depth[w] = v, e, depth[v] + 1
                    if e < n:
                        y1[w], y2[w] = -y1[v], cost[e] - y2[v]
                    else:
                        y1[w] = sigma[w]
                    order.append(w)
        return parent, pedge, depth, order, y1, y2, adj

    def _enter_loop(self, y1, y2, barred, tol, bland):
        """The entering variable by ``run``'s rule and its artificial price,
        or (-1, 0) if none prices below (0, -tol): a Python loop over the
        variables, cheaper than numpy's fixed cost per call when there are
        at most ``LOOP_PRICING`` of them."""
        ends, cost = self.ends, self.cost
        enter, key = -1, None
        for e in range(self.n):
            if barred[e]:
                continue
            a, b = ends[e]
            r1 = -y1[a] - y1[b]
            if r1 > 0:
                continue
            r2 = cost[e] - y2[a] - y2[b]
            if (r1 < 0 or r2 < -tol) and (key is None or (r1, r2) < key):
                enter, key = e, (r1, r2)
                if bland:
                    break
        return (enter, key[0]) if key else (-1, 0)

    def _enter_vector(self, y1, y2, barred, tol, bland):
        """``_enter_loop``'s choice, priced by numpy elementwise with the
        same roundings.  Every |y1| is at most 1, so a tree variable,
        barred by 3, prices above 0 in the artificial part."""
        p1, p2 = np.array(y1), np.array(y2)
        r1 = barred - p1[self.head] - p1[self.tail]
        r2 = self.price - p2[self.head] - p2[self.tail]
        if bland:
            hits = np.flatnonzero((r1 < 0) | ((r1 == 0) & (r2 < -tol)))
            return (int(hits[0]), int(r1[hits[0]])) if hits.size else (-1, 0)
        low = int(r1.min())
        r2[r1 != low] = INF
        enter = int(r2.argmin())
        if low > 0 or (low == 0 and not r2[enter] < -tol):
            return -1, 0
        return enter, low

    def run(self, tol):
        """Pivot until no variable prices below (0, -tol) lexicographically.

        Each iteration enters the variable of least reduced cost
        ``(-y1_a - y1_b, c - y2_a - y2_b)``, the first of equal ones
        (Dantzig's rule), or, after a step of 0, the first that prices
        below (0, -tol) (Bland's rule).  The step pushes flow around the
        cycle the variable closes in the tree (through the root where its
        rows hang from different artificials), and the edge it lowers that
        has the least flow leaves, the least (flow, variable or not, index)
        on a tie, so artificials first.  The subtree that the leaving edge
        held then hangs from the entering one, and only its nodes get new
        parents, depths and potentials.  A pivot that enters on a negative
        artificial price counts as one of phase 1, any other as one of
        phase 2."""
        n, ends, cost, flow, sigma = self.n, self.ends, self.cost, self.flow, self.sigma
        tree, across = self.tree, self.across
        parent, pedge, depth, _, y1, y2, adj = self._hang()
        barred = [0] * n  # 3 for a variable in the tree
        for e in tree:
            if e < n:
                barred[e] = 3
        entering = self._enter_loop
        if n > LOOP_PRICING:
            entering = self._enter_vector
            self.head, self.tail = np.array(ends, dtype=np.int64).T
            self.price = np.array(cost)
            barred = np.array(barred)
        bland = False
        for _ in range(_iteration_cap(self.m)):
            enter, artificial = entering(y1, y2, barred, tol, bland)
            if enter < 0:
                return
            # walk up from both rows to where their paths meet; d is what a
            # unit step adds to the left side of the row walked from, and
            # the row's parent edge takes it away; h says which end of the
            # entering variable the walk came from
            (i, j), di, dj, hi, hj = ends[enter], 1, 1, 0, 1
            path, block = [], None
            while i != j:
                if depth[i] < depth[j]:
                    i, j, di, dj, hi, hj = j, i, dj, di, hj, hi
                e = pedge[i]
                s = -di if e < n else -di * sigma[i]
                path.append((e, s))
                if s < 0 and (block is None or (flow[e], e < n, e) < block[0]):
                    block = (flow[e], e < n, e), hi
                di, i = -di, parent[i]
            (step, _, leave), side = block
            for e, s in path:
                flow[e] = flow[e] + step if s > 0 else flow[e] - step
            flow[enter] = step
            tree[tree.index(leave)] = enter
            barred[enter] = 3
            if leave < n:
                barred[leave] = 0
            self.pivots += 1
            self.phase_pivots[artificial == 0] += 1
            bland = step == 0.0
            # the subtree below the leaving edge hangs from the entering
            # edge's end in it; it holds no artificial, the root being above
            for v in self.nodes[leave]:
                adj[v].remove(leave)
            s, t = ends[enter][side], ends[enter][1 - side]
            adj[s].append(enter)
            adj[t].append(enter)
            parent[s], pedge[s], depth[s] = t, enter, depth[t] + 1
            y1[s], y2[s] = -y1[t], cost[enter] - y2[t]
            moved = [s]
            for v in moved:
                for e in adj[v]:
                    if e != pedge[v]:
                        w = across[e] ^ v
                        parent[w], pedge[w], depth[w] = v, e, depth[v] + 1
                        y1[w], y2[w] = -y1[v], cost[e] - y2[v]
                        moved.append(w)
        raise LpNumericalError("tree simplex exceeded its iteration limit")

    def finish(self):
        """Hang each component that hangs from the root by one artificial
        from its first row instead, which changes no reduced cost, and read
        the flows off the tree from the exact right-hand sides, leaves
        first, the artificials taking what their rows have left: the
        rounding of a balanced component lands in its first row.  Returns
        the variables' flows, the artificial mass, and the least reduced
        cost ``c - y2_a - y2_b`` over the variables with ``y1_a + y1_b =
        0``; the others price above 0 in the artificial part, so
        ``y2 + M y1`` is a dual solution for every large enough M."""
        n, tree, first = self.n, self.tree, self.first
        arts = [e - n for e in tree if e >= n]
        hanging = Counter(first[k] for k in arts)
        for k in arts:
            if k != first[k] and hanging[first[k]] == 1:
                tree[tree.index(n + k)] = n + first[k]
                self.sigma[first[k]] = 1
        parent, pedge, _, order, y1, y2, _ = self._hang()
        flow, left, mass = self.flow, list(self.rhs), 0.0
        for v in reversed(order[1:]):
            e = pedge[v]
            if e < n:
                flow[e] = left[v]
                left[parent[v]] -= left[v]
            else:
                mass += abs(left[v])
        worst = 0.0
        for (a, b), c in zip(self.ends, self.cost):
            if y1[a] + y1[b] == 0:
                worst = min(worst, c - y2[a] - y2[b])
        return flow[:n], mass, worst


def solve(model: LpModel) -> LpSolution:
    """Presolve, then the simplex on what is left, solved on its colour
    classes, whose columns ``_columns`` hands it directly, each row's logical
    appended: a least-cost triangular crash basis of columns
    of cost 0 (``_crash``), which is the answer as it stands when no cost is
    negative and it is primal feasible (``_start_is_optimal``); else a dual
    simplex from it, on costs shifted to 0 or above and slightly perturbed,
    which decides feasibility on the exact right-hand side, then a primal
    cleanup on the true costs, which decides boundedness and the optimum.
    An optimal solution is basic in that quotient program and constant on
    each class, so where classes merge it need not be a vertex of the
    model; the variables the presolve folded into others are recovered from
    them (``_Presolved.recover``).  It satisfies every constraint of the
    original model within ``FEAS_TOL``, and the quotient's final basis is
    dual feasible.  A program the
    presolve leaves as a transportation problem (``_transportation``) is
    solved on a spanning tree instead (``_solve_tree``): its answer passes
    the same residual check, and every live variable prices at -DUAL_TOL
    relative or above under the final tree's potentials.  The test stays
    here for direct callers and the library's other programs;
    ``transport.optimal_coupling`` goes to the tree without it.
    ``LpSolution.method`` names the path that answered.  On every path
    the ``values`` are >= 0 and hold no ``-0.0``.  Numerical
    breakdown raises, never passes silently.  The model is validated in the
    presolve's first walk over its rows, which raises ``LpModel.validate``'s
    error on a faulty one, so no separate walk checks it."""
    pre = _presolve(model)
    c_orig = np.zeros(model.num_vars)
    for idx, coef in model.objective.items():
        c_orig[idx] = coef
    merged, crashed = (0, 0), 0

    def answer(status, values=None, sx=None, phase_pivots=(0, 0), method="simplex"):
        objective = None
        if values is not None:
            pre.recover(values)
            _recheck(model, values)
            objective = float(c_orig @ values)
        pivots, refactors = (0, 0) if sx is None else (sx.pivots, sx.refactors)
        kinds = {"fix": 0, "drop": 0, "agg": 0}
        for e in pre.eliminations:
            kinds[e[0]] += 1
        return LpSolution(status, objective, values, list(model.var_names),
                          kinds["fix"], kinds["drop"], kinds["agg"],
                          *merged, pivots, phase_pivots, refactors, crashed, method)

    if pre.infeasible:
        return answer("infeasible")
    live = [idx for idx in range(model.num_vars) if not pre.is_fixed[idx]]
    values = np.array(pre.values)
    shape = _transportation(pre, live)
    if shape is not None:
        tree, flows = _solve_tree([rhs for _, _, rhs in pre.rows],
                                  [pre.objective.get(j, 0.0) for j in live], *shape)
        crashed = tree.cells
        phases = tuple(tree.phase_pivots)
        if flows is None:
            return answer("infeasible", sx=tree, phase_pivots=phases, method="transport")
        values[live] = flows
        return answer("optimal", values, tree, phases, "transport")

    terms, cost, rels, b, column, merged = _columns(pre, live)
    n, m = len(terms), len(rels)

    if m == 0:
        # no row is left, so every live variable is unbounded above
        if min(cost, default=0.0) < 0:
            return answer("unbounded")
        return answer("optimal", values)

    c = np.zeros(n + m)
    c[:n] = cost
    shifted = np.maximum(c[:n], 0.0)  # negative costs shifted to 0
    basis, xB = _crash(terms, shifted.tolist(), b, rels)
    crashed = sum(j < n for j in basis)

    def lift(basis, xB):
        # basic values this far below the solver's resolution are exact
        # zeros, negative ones included; without the snap, p-th roots
        # downstream amplify femto-scale noise
        xB[xB < SNAP_TOL * max(1.0, float(np.max(xB, initial=0.0)))] = 0.0
        x = np.zeros(n + m)
        x[basis] = xB
        values[live] = x[column]
        return values

    if _start_is_optimal(c, b, basis, xB, rels):
        return answer("optimal", lift(basis, np.array(xB)))

    # one logical per row: a slack for <=, a surplus for >=, and for = one
    # fixed at 0, which may leave the basis but never enters
    A = _SparseCols(m, terms + [[(i, -1.0 if rel == ">=" else 1.0)] for i, rel in enumerate(rels)])
    fixed = np.zeros(n + m, dtype=bool)
    fixed[n:] = [rel == "=" for rel in rels]

    # the dual simplex runs on the shifted costs, so the all-logical basis
    # is dual feasible with y = 0; the crash keeps y = 0 by placing only
    # columns of cost 0, and the other structural columns are raised by a
    # fixed tiny pattern, against ties in the dual ratio test
    c_dual = np.zeros(n + m)
    c_dual[:n] = shifted + PERTURB * np.maximum(1.0, shifted) * _perturbation(n)
    c_dual[basis] = 0.0
    sx = _Simplex(A, np.array(b), basis)
    if sx.dual(c_dual, fixed) == "infeasible":
        return answer("infeasible", sx=sx, phase_pivots=(sx.pivots, 0))
    dual = sx.pivots

    # the dual's basis is primal feasible: the primal simplex takes it to
    # the optimum of the true costs
    if sx.run(c, fixed) == "unbounded":
        return answer("unbounded", sx=sx, phase_pivots=(dual, sx.pivots - dual))

    # polish on the basis run left inverted: two rounds of iterative
    # refinement kill the drift of incremental updates
    for _ in range(2):
        sx.xB += sx.Binv @ (sx.b - sx.B @ sx.xB)
    # dual certificate: y = c_B B^-1 must price every column the program
    # may use at a nonnegative reduced cost, else the basis is not optimal;
    # a basic column's is 0 by definition, and what is computed for it is
    # rounding noise
    reduced = c - sx.A.transpose_dot(c[sx.basis] @ sx.Binv)
    reduced[sx.basis] = 0.0
    worst = float(reduced[~fixed].min(initial=0.0))
    if worst < -DUAL_TOL * max(1.0, float(np.abs(c).max())):
        raise LpNumericalError(f"final basis is not dual feasible: reduced cost {worst:.3e}")
    return answer("optimal", lift(sx.basis, sx.xB), sx, (dual, sx.pivots - dual))


def _solve_tree(rhs, cost, ends, first):
    """A transportation problem solved on a spanning tree (``_Tree``): rows
    with right-hand sides ``rhs``, and variable ``e``, of cost ``cost[e]``,
    in the two rows ``ends[e]``, which lie on opposite sides; ``first``
    names the first row of each row's component (``_components``).  This
    is the tree path of ``solve``, and ``transport.optimal_coupling``
    calls it on its coupling with no model at all.

    Returns the tree, for its counts, and each variable's value, or None
    when the program is infeasible: its artificials end with mass above
    ``FEAS_TOL``.  Raises LpNumericalError unless every variable prices at
    ``-DUAL_TOL`` relative to ``max(1, max|c|)`` or above under the final
    tree's potentials.  Values below ``SNAP_TOL`` relative to the largest
    are exact zeros.  The primal check is the caller's: ``solve`` rechecks
    the point on its model, ``optimal_coupling`` the coupling's
    marginals."""
    tree = _Tree(rhs, cost, ends, first)
    scale = max(1.0, max(map(abs, cost), default=0.0))
    tree.run(OPT_TOL * scale)
    flows, mass, worst = tree.finish()
    if mass > FEAS_TOL:
        return tree, None
    if worst < -DUAL_TOL * scale:
        raise LpNumericalError(f"final tree is not dual feasible: reduced cost {worst:.3e}")
    # flows this far below the largest are exact zeros, as in the polish
    snap = SNAP_TOL * max(1.0, max(flows, default=0.0))
    return tree, [x if x >= snap else 0.0 for x in flows]


def _least_cost(entries, order, r, taken, fits):
    """The least-cost rule of the transportation problem, from which both
    ``_crash`` and ``_Tree`` start.

    Columns are visited in ``order``, by ascending cost with ties by index.
    One with an entry in a row already ``taken`` is skipped.  Otherwise its
    row ``p`` is the minimum ratio ``r_p / a_p`` over its positive entries,
    the first on a tie; if ``fits(p, a_p, step)`` for ``step = r_p / a_p``,
    ``r`` drops by ``a * step`` along the column, ``p`` is taken, and ``(j,
    p, step)`` is yielded.  Updates ``r`` and ``taken`` in place."""
    for j in order:
        terms = entries[j]
        for i, _ in terms:
            if taken[i]:
                break
        else:  # no entry in a taken row
            p, a_p, step = 0, 0.0, INF
            for i, a in terms:
                if a > 0.0 and r[i] / a < step:
                    p, a_p, step = i, a, r[i] / a
            if fits(p, a_p, step):
                for i, a in terms:
                    r[i] -= a * step
                taken[p] = True
                yield j, p, step


def _crash(entries, cost, b, rels):
    """Least-cost triangular crash (Bixby, *Implementing the simplex
    method: the initial basis*, ORSA J. Computing 4, 1992): put structural
    columns of cost 0 (``cost`` is 0 or more) into the starting basis in
    place of logicals, by the least-cost rule (``_least_cost``) on the
    rows' residual ``r``, which starts as the right-hand side ``b``.  A
    column takes its row ``p`` at ``x_j = r_p / a_p`` only if ``a_p >
    GUARD_TOL`` and ``p`` is an ``=`` or ``>=`` row, whose logical is out of
    its bounds at the all-logical start.  A tiny entry with the least ratio
    blocks its column rather than drop out of the test, since a step past
    its ratio would drive its row's basic value negative.

    Each placed column misses the rows taken before it, so the basis is a
    permuted triangle with nonzero diagonal, hence nonsingular; and no row
    of ``r`` goes below 0 (up to rounding), so no slack of a ``<=`` row
    turns negative.  Every basic column costs 0, so y = 0 stays the dual
    solution of the start.  Returns the basis, the logical ``n + i`` in
    each row ``i`` left untaken, and the value of each basic column: ``x_j``
    for a placed one, and for a logical the residual of its row, negated
    for a surplus."""
    n, m = len(entries), len(b)
    basis, xB, r = list(range(n, n + m)), [0.0] * m, list(b)

    def fits(p, a_p, step):
        return a_p > GUARD_TOL and rels[p] != "<="

    zero = [j for j, cj in enumerate(cost) if cj == 0.0]
    for j, p, step in _least_cost(entries, zero, r, [False] * m, fits):
        basis[p] = j
        xB[p] = step
    for i, rel in enumerate(rels):
        if basis[i] >= n:
            xB[i] = -r[i] if rel == ">=" else r[i]
    return basis, xB


def _start_is_optimal(c, b, basis, xB, rels):
    """Whether ``_crash``'s start is optimal as it stands, with no simplex
    at all: every cost ``c`` is 0 or more, and no basic value is out of its
    bounds (0 for a logical of an ``=`` row, 0 and up for any other column)
    by more than the dual simplex leaves at its verdict on right-hand side
    ``b`` (``b >= 0``).  Its basic columns cost 0, so the point attains the
    bound ``c.x >= 0``, and y = 0 is its dual certificate, pricing every
    column at ``c_j >= 0``."""
    if c.min() < 0.0:
        return False
    n, tol = c.size - len(b), _primal_tol(max(b))
    return all((abs(v) if j >= n and rel == "=" else -v) <= tol
               for j, v, rel in zip(basis, xB, rels))


# The perturbation pattern: a prefix of one fixed stream, drawn at the first
# solve and drawn again, at least twice as long, when a larger program
# arrives.  A draw of m uniforms from default_rng(0) is a prefix of any
# longer draw, so the pattern of a program does not depend on what was
# solved before it.
_pattern = np.empty(0)


def _perturbation(m):
    """``np.random.default_rng(0).uniform(0.5, 1.0, m)``, read-only."""
    global _pattern
    pattern = _pattern  # read once: another thread may replace it meanwhile
    if m > pattern.size:
        pattern = np.random.default_rng(0).uniform(0.5, 1.0, max(m, 2 * pattern.size))
        pattern.flags.writeable = False
        _pattern = pattern
    return pattern[:m]


def _recheck(model: LpModel, x):
    """Independent residual check of a claimed-optimal point: every row
    and bound of ``model`` within ``FEAS_TOL``, else LpNumericalError
    naming the first one violated.  This is the one check of what the
    library's programs state as rows: in ``relax``, the stochastic rows
    (``row_``, ``phirow_``), the pins (``pin_``), naturality (``nat_``),
    the measure rows (``meas_``, ``mp_``) and the distance rows (``pod_``)
    with their transport blocks."""
    x = x.tolist()  # Python floats index and multiply faster than numpy scalars
    for cname, terms, rel, rhs in model.constraints:
        resid = sum([coef * x[idx] for idx, coef in terms]) - rhs
        if not _row_ok(rel, resid):
            raise LpNumericalError(f"solution violates constraint {cname!r} by {abs(resid):.3e}")
    for idx, u in enumerate(model.var_upper):
        if x[idx] < -FEAS_TOL or x[idx] > u + FEAS_TOL:
            raise LpNumericalError(f"solution violates bounds of {model.var_names[idx]!r}")


# -- text format ---------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _terms_text(terms, names) -> str:
    if not terms:
        return "0"
    return " + ".join(f"{_fmt(coef)} {names[idx]}" for idx, coef in terms)


def export_lp(model: LpModel) -> str:
    """Deterministic text rendering: MINIMIZE / SUBJECT TO / BOUNDS / END.

    Coefficients carry 17 significant digits; variables appear in declaration
    order.  BOUNDS lists every finite upper bound, and ``x <= inf`` for a
    variable that appears nowhere else, so that parsing gives it back; the
    section is present only when it lists something.
    """
    model.validate()
    names = model.var_names
    obj_terms = [(idx, model.objective[idx]) for idx in sorted(model.objective)]
    lines = ["MINIMIZE" + (" " + _terms_text(obj_terms, names) if obj_terms else "")]
    lines.append("SUBJECT TO")
    used = set(model.objective)
    for cname, terms, rel, rhs in model.constraints:
        lines.append(f"{cname}: {_terms_text(terms, names)} {rel} {_fmt(rhs)}")
        used.update(idx for idx, _ in terms)
    bounds = [
        f"{names[idx]} <= {_fmt(u)}"
        for idx, u in enumerate(model.var_upper)
        if math.isfinite(u) or idx not in used
    ]
    if bounds:
        lines.append("BOUNDS")
        lines.extend(bounds)
    lines.append("END")
    return "\n".join(lines) + "\n"


# a "+" between terms; the one of an exponent ("1e+20") follows a mantissa's
# digit or point and an "e"
_TERM_RE = re.compile(r"\s*(?<![0-9.][eE])\+\s*")


def _number(text, line):
    try:
        return float(text)
    except ValueError:
        raise LpError(f"cannot parse number {text!r} in line {line!r}") from None


def _parse_terms(text, var, line):
    terms = []
    text = text.strip()
    if text == "0":
        return terms
    for part in _TERM_RE.split(text):
        pieces = part.split()
        if len(pieces) != 2:
            raise LpError(f"cannot parse term {part!r}")
        terms.append((var(pieces[1]), _number(pieces[0], line)))
    return terms


def parse_lp(text: str) -> LpModel:
    """Parse the export_lp format back into a model (round-trip inverse).

    Variables are created in their order of first appearance in the
    objective, constraints, and bounds.
    """
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("MINIMIZE"):
        raise LpError("LP text must start with MINIMIZE")
    if lines[-1] != "END":
        raise LpError("LP text must end with END")
    try:
        sub_at = lines.index("SUBJECT TO")
    except ValueError:
        raise LpError("LP text is missing SUBJECT TO")
    bounds_at = lines.index("BOUNDS") if "BOUNDS" in lines else len(lines) - 1

    model = LpModel()
    index: dict[str, int] = {}

    def var(name):
        if name not in index:
            index[name] = model.add_variable(name)
        return index[name]

    for idx, coef in _parse_terms(lines[0][len("MINIMIZE"):] or "0", var, lines[0]):
        model.add_objective(idx, coef)
    for ln in lines[sub_at + 1 : bounds_at]:
        if ":" not in ln:
            raise LpError(f"constraint line without name: {ln!r}")
        cname, rest = ln.split(":", 1)
        mrel = re.search(r"(<=|>=|=)\s*([^<>=]+)$", rest)
        if not mrel:
            raise LpError(f"cannot parse constraint {ln!r}")
        terms = _parse_terms(rest[: mrel.start()], var, ln)
        model.add_constraint(cname.strip(), terms, mrel.group(1), _number(mrel.group(2), ln))
    for ln in lines[bounds_at + 1 : -1]:
        pieces = ln.split()
        if len(pieces) != 3 or pieces[1] != "<=":
            raise LpError(f"cannot parse bound {ln!r}")
        model.var_upper[var(pieces[0])] = _number(pieces[2], ln)
    model.validate()
    return model
