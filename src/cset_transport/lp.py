"""Sparse linear-program model, a self-contained two-phase revised simplex
solver, and a deterministic LP text format.

All variables are nonnegative; finite positive upper bounds are turned into
rows internally, and a variable with upper bound 0 is fixed at zero by leaving
it out of the simplex altogether (no column, no bound row).  The solver keeps
an explicit basis inverse, reinverts it periodically, and enters one column
per iteration: the most negative reduced cost (Dantzig's rule), or the least
eligible index (Bland's rule) while a run of degenerate pivots suggests
cycling, until the next improving step.  Bland's rule guarantees termination;
Dantzig's keeps typical transportation-style programs fast.  Pivoting is
deterministic, so repeated solves of the same model are bit-identical.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import LpError, LpNumericalError

__all__ = ["LpModel", "LpSolution", "solve", "export_lp", "parse_lp"]

INF = math.inf

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-7
BLAND_AFTER = 64
REFACTOR_EVERY = 256

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
        if len(set(self.var_names)) != len(self.var_names):
            raise LpError("variable names are not unique")
        names = set()
        for cname, terms, rel, rhs in self.constraints:
            if cname in names:
                raise LpError(f"duplicate constraint name {cname!r}")
            names.add(cname)
            if rel not in _RELATIONS:
                raise LpError(f"bad relation {rel!r} in constraint {cname!r}")
            if not math.isfinite(rhs):
                raise LpError(f"non-finite right-hand side in constraint {cname!r}")
            for idx, coef in terms:
                if not 0 <= idx < self.num_vars:
                    raise LpError(f"constraint {cname!r} references unknown variable {idx}")
                if not math.isfinite(coef):
                    raise LpError(f"non-finite coefficient in constraint {cname!r}")
        for idx, coef in self.objective.items():
            if not 0 <= idx < self.num_vars:
                raise LpError(f"objective references unknown variable {idx}")
            if not math.isfinite(coef):
                raise LpError("non-finite objective coefficient")
        for u in self.var_upper:
            if u < 0:
                raise LpError("negative upper bound")


@dataclass(eq=False)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None
    values: np.ndarray | None
    var_names: list[str]

    def value(self, name: str) -> float:
        return float(self.values[self.var_names.index(name)])


class _SparseCols:
    """Column-compressed matrix: just enough for simplex pricing."""

    def __init__(self, m, ncols, coo_rows, coo_cols, coo_vals):
        order = np.lexsort((coo_rows, coo_cols))
        self.m = m
        self.ncols = ncols
        self.rows = coo_rows[order]
        self.vals = coo_vals[order]
        self.colids = coo_cols[order]
        counts = np.bincount(coo_cols, minlength=ncols)
        self.indptr = np.concatenate(([0], np.cumsum(counts)))

    def column(self, j):
        sl = slice(self.indptr[j], self.indptr[j + 1])
        return self.rows[sl], self.vals[sl]

    def transpose_dot(self, y):
        """A^T y for a dense vector y, via one pass over the nonzeros."""
        return np.bincount(self.colids, weights=self.vals * y[self.rows], minlength=self.ncols)

    def dense_submatrix(self, cols):
        out = np.zeros((self.m, len(cols)))
        for k, j in enumerate(cols):
            r, v = self.column(j)
            np.add.at(out[:, k], r, v)
        return out


class _Simplex:
    """Revised simplex on rows A x = b, x >= 0, with sparse columns and an
    explicit, periodically rebuilt basis inverse."""

    def __init__(self, A: _SparseCols, b):
        self.A = A
        self.b = b
        self.m = A.m
        self.n = A.ncols
        self.max_iter = max(5000, 200 * (self.m + 1))
        self.pivots = 0
        # phase-2 guard: basic variables in this set sit at zero and must not
        # grow, so they leave (step 0) as soon as the entering column would
        # push them up
        self.zero_guard = np.zeros(self.n, dtype=bool)

    def set_basis(self, basis):
        self.basis = np.asarray(basis, dtype=int)
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.in_basis[self.basis] = True
        self._ger = np.empty((self.m, self.m))
        self.refactor()

    def refactor(self):
        B = self.A.dense_submatrix(self.basis)
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular basis during refactorization: {exc}")
        self.xB = self.Binv @ self.b
        self.dirty = False

    def direction(self, j):
        r, v = self.A.column(j)
        return self.Binv[:, r] @ v

    def pivot(self, leave_pos, enter_col, d, step):
        self.in_basis[self.basis[leave_pos]] = False
        self.in_basis[enter_col] = True
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
            np.clip(self.xB, 0.0, None, out=self.xB)

    def _leave_lex(self, ties, d):
        """Deterministic tie-break: minimize a fixed projection of the
        candidate tableau rows, a vectorized stand-in for the lexicographic
        rule (Bland's rule remains the termination backstop)."""
        if not hasattr(self, "_lexw") or self._lexw.shape[0] != self.m:
            rng = np.random.default_rng(0)
            self._lexw = rng.random(self.m) + 0.5
        vals = (self.Binv[ties] @ self._lexw) / d[ties]
        return int(ties[np.argmin(vals)])

    def _ratio_select(self, d, bland):
        """Minimum-ratio leaving row, or None when the column is unblocked."""
        pos = np.flatnonzero(d > PIVOT_TOL)
        if pos.size == 0:
            return None
        ratios = self.xB[pos] / d[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12]
        if ties.size == 1:
            leave_pos = int(ties[0])
        elif bland:
            leave_pos = int(ties[np.argmin(self.basis[ties])])
        else:
            leave_pos = self._leave_lex(ties, d)
        return leave_pos, max(best, 0.0)

    def run(self, c, allowed):
        """Minimize c.x over the current system; returns 'optimal' or 'unbounded'.

        Each iteration prices once and enters one column.  Entering variable:
        Dantzig's most negative reduced cost; after a long run of degenerate
        pivots the rule degrades to Bland's least eligible index, which cannot
        cycle, and returns to Dantzig after the next improving step.  Leaving
        variable: minimum ratio with a deterministic lexicographic tie-break
        (least basic index under Bland's rule).
        """
        opt_tol = 1e-11
        bland = False
        stall = 0
        cB = c[self.basis].copy()
        for _ in range(self.max_iter):
            y = cB @ self.Binv
            reduced = c - self.A.transpose_dot(y)
            eligible = allowed & ~self.in_basis & (reduced < -opt_tol)
            candidates = np.flatnonzero(eligible)
            if candidates.size == 0:
                if self.dirty:
                    self.refactor()
                    continue
                return "optimal"
            if bland:
                j = int(candidates[0])
            else:
                j = int(candidates[np.argmin(reduced[candidates])])
            d = self.direction(j)
            # pivot a shrinking-guarded basic out at step zero, but only on a
            # well-sized element
            guarded = np.flatnonzero(self.zero_guard[self.basis] & (d < -1e-7))
            if guarded.size:
                leave_pos, step = int(guarded[0]), 0.0
            else:
                sel = self._ratio_select(d, bland)
                if sel is None:
                    if self.dirty:
                        self.refactor()
                        continue
                    return "unbounded"
                leave_pos, step = sel
                if d[leave_pos] < 1e-6 and self.dirty:
                    # a pivot element this small is usually drift noise:
                    # rebuild the inverse exactly and re-price before committing
                    self.refactor()
                    continue
                if step <= 1e-12:
                    stall += 1
                    if stall > BLAND_AFTER:
                        bland = True
                else:
                    stall = 0
                    bland = False
            self.pivot(leave_pos, j, d, step)
            cB[leave_pos] = c[j]
        raise LpNumericalError(f"simplex exceeded {self.max_iter} iterations")


def _standardize(model: LpModel):
    """Rows A x (rel) b with b >= 0, plus upper-bound rows, in sparse terms.

    A variable with upper bound 0 is fixed at zero: it gets no bound row here
    and no column in ``solve``."""
    out = []
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    for _, terms, rel, rhs in model.constraints:
        if rhs < 0:
            out.append(([(i, -c) for i, c in terms], flip[rel], -rhs))
        else:
            out.append((list(terms), rel, rhs))
    for idx, u in enumerate(model.var_upper):
        if math.isfinite(u) and u != 0.0:
            out.append(([(idx, 1.0)], "<=", u))
    return out


def solve(model: LpModel) -> LpSolution:
    """Two-phase simplex; optimal solutions are basic and satisfy every
    constraint within ``FEAS_TOL``.  Numerical breakdown raises, never passes
    silently."""
    model.validate()
    rows = _standardize(model)
    m = len(rows)
    # simplex columns: variables with upper bound 0 have none and stay at 0
    live = [idx for idx, u in enumerate(model.var_upper) if u != 0.0]
    col = [-1] * model.num_vars
    for k, idx in enumerate(live):
        col[idx] = k
    n = len(live)
    c_orig = np.zeros(model.num_vars)
    for idx, coef in model.objective.items():
        c_orig[idx] = coef

    if m == 0:
        if np.any(c_orig[live] < 0):
            return LpSolution("unbounded", None, None, list(model.var_names))
        return LpSolution("optimal", 0.0, np.zeros(model.num_vars), list(model.var_names))

    # slack for <=, surplus for >=, artificial for >= and =
    n_slack = sum(1 for _, rel, _ in rows if rel in ("<=", ">="))
    total = n + n_slack + m
    coo_r: list[int] = []
    coo_c: list[int] = []
    coo_v: list[float] = []
    b = np.zeros(m)
    c2 = np.zeros(total)
    c2[:n] = c_orig[live]
    basis = []
    art_cols = []
    s = 0
    for i, (terms, rel, rhs) in enumerate(rows):
        for idx, coef in terms:
            k = col[idx]
            if k >= 0:
                coo_r.append(i)
                coo_c.append(k)
                coo_v.append(coef)
        b[i] = rhs
        if rel == "<=":
            coo_r.append(i), coo_c.append(n + s), coo_v.append(1.0)
            basis.append(n + s)
            s += 1
        elif rel == ">=":
            coo_r.append(i), coo_c.append(n + s), coo_v.append(-1.0)
            s += 1
            art = n + n_slack + i
            coo_r.append(i), coo_c.append(art), coo_v.append(1.0)
            basis.append(art)
            art_cols.append(art)
        else:
            art = n + n_slack + i
            coo_r.append(i), coo_c.append(art), coo_v.append(1.0)
            basis.append(art)
            art_cols.append(art)
    A = _SparseCols(
        m,
        total,
        np.asarray(coo_r, dtype=int),
        np.asarray(coo_c, dtype=int),
        np.asarray(coo_v, dtype=float),
    )
    is_artificial = np.zeros(total, dtype=bool)
    is_artificial[art_cols] = True

    sx = _Simplex(A, b)
    sx.set_basis(basis)

    if art_cols:
        art_cost = np.zeros(total)
        art_cost[art_cols] = 1.0
        # blending in a little of the real objective steers phase 1 toward a
        # near-optimal vertex (degenerate plateaus otherwise make phase 2
        # start far away); infeasibility is re-certified with the pure
        # artificial objective below, so the blend cannot mask it
        scale = max(1.0, float(np.abs(c2).max()))
        c1 = art_cost + (1e-4 / scale) * c2
        everything = np.ones(total, dtype=bool)
        status = sx.run(c1, allowed=everything)
        art_mass = float(art_cost[sx.basis] @ sx.xB)
        if status != "optimal" or art_mass > FEAS_TOL:
            status = sx.run(art_cost, allowed=everything)
            if status != "optimal":
                raise LpNumericalError("phase 1 reported unbounded; this cannot happen")
            art_mass = float(art_cost[sx.basis] @ sx.xB)
            if art_mass > FEAS_TOL:
                return LpSolution("infeasible", None, None, list(model.var_names))
        _drive_out_artificials(sx, is_artificial)
        sx.zero_guard = is_artificial

    status = sx.run(c2, allowed=~is_artificial)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, list(model.var_names))

    # polish the basic solution: exact inverse of the final basis plus two
    # rounds of iterative refinement kill the drift of incremental updates
    sx.refactor()
    B = sx.A.dense_submatrix(sx.basis)
    for _ in range(2):
        sx.xB += sx.Binv @ (sx.b - B @ sx.xB)
    np.clip(sx.xB, 0.0, None, out=sx.xB)
    # basic values this far below the solver's resolution are exact zeros;
    # without the snap, p-th roots downstream amplify femto-scale noise
    snap = 1e-12 * max(1.0, float(np.max(sx.xB, initial=0.0)))
    sx.xB[sx.xB < snap] = 0.0

    x = np.zeros(sx.n)
    x[sx.basis] = sx.xB
    values = np.zeros(model.num_vars)
    values[live] = np.maximum(x[:n], 0.0)  # clip basic round-off of order PIVOT_TOL
    _recheck(model, values)
    objective = float(c_orig @ values)
    return LpSolution("optimal", objective, values, list(model.var_names))


def _drive_out_artificials(sx: _Simplex, is_artificial):
    """Pivot zero-level artificials out of the basis where possible.

    An artificial whose tableau row has no usable non-artificial entry sits
    on a redundant constraint; it stays basic at zero and the phase-2 zero
    guard keeps it there.
    """
    for pos in range(len(sx.basis)):
        if not is_artificial[sx.basis[pos]]:
            continue
        row = sx.A.transpose_dot(sx.Binv[pos])
        row[is_artificial] = 0.0
        row[sx.in_basis] = 0.0
        cand = np.flatnonzero(np.abs(row) > 1e-7)
        if cand.size:
            j = int(cand[0])
            d = sx.direction(j)
            sx.pivot(pos, j, d, sx.xB[pos] / d[pos])


def _recheck(model: LpModel, x):
    """Independent residual check of a claimed-optimal point."""
    for cname, terms, rel, rhs in model.constraints:
        lhs = sum(coef * x[idx] for idx, coef in terms)
        resid = lhs - rhs
        ok = (
            abs(resid) <= FEAS_TOL
            if rel == "="
            else resid <= FEAS_TOL
            if rel == "<="
            else resid >= -FEAS_TOL
        )
        if not ok:
            raise LpNumericalError(
                f"solution violates constraint {cname!r} by {abs(resid):.3e}"
            )
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
    order; the BOUNDS section is present only when some upper bound is finite.
    """
    model.validate()
    names = model.var_names
    obj_terms = [(idx, model.objective[idx]) for idx in sorted(model.objective)]
    lines = ["MINIMIZE" + (" " + _terms_text(obj_terms, names) if obj_terms else "")]
    lines.append("SUBJECT TO")
    for cname, terms, rel, rhs in model.constraints:
        lines.append(f"{cname}: {_terms_text(terms, names)} {rel} {_fmt(rhs)}")
    bounds = [
        f"{names[idx]} <= {_fmt(u)}"
        for idx, u in enumerate(model.var_upper)
        if math.isfinite(u)
    ]
    if bounds:
        lines.append("BOUNDS")
        lines.extend(bounds)
    lines.append("END")
    return "\n".join(lines) + "\n"


_TERM_RE = re.compile(r"\s*\+\s*")


def _parse_terms(text, index):
    terms = []
    text = text.strip()
    if text == "0":
        return terms
    for part in _TERM_RE.split(text):
        pieces = part.split()
        if len(pieces) != 2:
            raise LpError(f"cannot parse term {part!r}")
        coef, name = pieces
        if name not in index:
            raise LpError(f"unknown variable {name!r} in LP text")
        terms.append((index[name], float(coef)))
    return terms


def parse_lp(text: str) -> LpModel:
    """Parse the export_lp format back into a model (round-trip inverse).

    Variables are reconstructed from their appearance order in the objective,
    constraints, and bounds.
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

    # first pass: collect variable names in order of appearance
    order: list[str] = []

    def see(name):
        if name not in order:
            order.append(name)

    def scan_terms(text):
        text = text.strip()
        if text == "0":
            return
        for part in _TERM_RE.split(text):
            pieces = part.split()
            if len(pieces) == 2:
                see(pieces[1])

    scan_terms(lines[0][len("MINIMIZE"):])
    for ln in lines[sub_at + 1 : bounds_at]:
        scan_terms(ln.split(":", 1)[1].rsplit(None, 2)[0] if ":" in ln else "")
    for ln in lines[bounds_at + 1 : len(lines) - 1] if bounds_at < len(lines) - 1 else []:
        see(ln.split()[0])

    model = LpModel()
    index = {}
    for name in order:
        index[name] = model.add_variable(name)

    for idx, coef in _parse_terms(lines[0][len("MINIMIZE"):] or "0", index):
        model.add_objective(idx, coef)
    for ln in lines[sub_at + 1 : bounds_at]:
        if ":" not in ln:
            raise LpError(f"constraint line without name: {ln!r}")
        cname, rest = ln.split(":", 1)
        mrel = re.search(r"(<=|>=|=)\s*([^<>=]+)$", rest)
        if not mrel:
            raise LpError(f"cannot parse constraint {ln!r}")
        rel = mrel.group(1)
        rhs = float(mrel.group(2))
        terms = _parse_terms(rest[: mrel.start()], index)
        model.add_constraint(cname.strip(), terms, rel, rhs)
    if bounds_at < len(lines) - 1:
        for ln in lines[bounds_at + 1 : len(lines) - 1]:
            pieces = ln.split()
            if len(pieces) != 3 or pieces[1] != "<=":
                raise LpError(f"cannot parse bound {ln!r}")
            model.var_upper[index[pieces[0]]] = float(pieces[2])
    model.validate()
    return model
