"""Exact rational linear programming with verified certificates.

Solves max of a linear functional over ``{x : A x <= b}`` in exact
arithmetic and returns one of three fully certified outcomes:

* ``Optimal``    -- optimal value, an optimal point, and dual multipliers
  satisfying strong duality as exact identities;
* ``Infeasible`` -- a Farkas certificate ``lam >= 0`` with ``lam A = 0`` and
  ``lam b = -1``, with at most n+1 nonzeros;
* ``Unbounded``  -- a ray ``r`` with ``A r <= 0`` and ``c r > 0``.

Internally the solver runs Bland-rule primal simplex on the LP dual
``min y b  s.t.  y A = c, y >= 0``, whose bases have only n rows (n = number
of variables), which keeps pivots cheap for the many-row systems produced by
branching paths and accumulated cutting planes.  The simplex is revised and
integral ("integer pivoting"): it stores only ``d`` times the basis inverse
and the basic values, for the basis scale ``d``.  A system stores its rows
only scaled to integers, as their nonzeros (a derived system extends its
parent's); the ``.ineq`` reader and writer and the instance generators go
straight between text or integers and these rows, so a row that is integral
as given (sigma = 1) never becomes a Fraction.  A column or a reduced cost
costs one product per nonzero; the simplex multipliers are updated by rank
one per pivot; a pricing scan skips the basic columns, whose reduced costs
are 0.  Every outcome is
re-verified in integers on the scaled rows before it is returned; a failure
raises ``SolverError``.  An optimum is checked in the solver's own integers,
read from the final tableau: its point times ``|d|`` and its duals as integer
weights on the scaled rows, over their nonzeros; ``Optimal`` is constructed
from these integers and builds its Fraction ``point`` and ``dual`` only when
they are first read.  A ray is checked over a common denominator, and Farkas
multipliers over their nonzeros.  Every row combination ``lam (A, b)`` -- a
dual's, a given Farkas certificate's (``FarkasCertificate.verify``, which
solves nothing) -- is this one integer path: ``_weights`` turns the nonzero
rational multipliers into integer weights on the scaled rows (the solver's
own duals, and a certified lift's, already are) and ``_combine`` sums those
rows.  Both read the scaled rows as given,
so a certified proof's leaves are checked on rows that belong to no system.
A ``FarkasCertificate`` keeps only its nonzero multipliers, from the solver's
ray to the proof file and back, and builds the dense Vector when it is read.
Every Farkas certificate the solver returns is reduced: a basic dual ray
(the basis plus the entering column, so at most n+1 nonzeros, checked)
scaled to ``lam b = -1``, the one vertex of the normalized dual cone on its
independent support rows.  A certificate from elsewhere, such as a proof
file's, is checked as given and never reduced.

Outcomes are memoized per system, keyed by the objective, whose hash is
computed once per solve: asking the same system the same question again costs
a dictionary lookup.  A derived system (``with_rows`` / ``with_equality``
append scaled rows, ``with_rhs`` rescales the one row it changes, as a
tightening CG cut does) starts with an empty memo, but a solve that ends at an
optimum keeps its final basis for the objective, and every solve takes its
start from one walk over the system's kept bases and its ancestors'
(``_kept_start``).  The first basis kept for the objective whose scaled rows
are a prefix of the system's is extended: added primal rows only add dual
columns, and a changed b only changes costs, so the basis stays dual feasible
and phase 1 is skipped.  Else the last basis of the nearest system that keeps
any, the system itself or an ancestor, is restarted for the objective by dual
simplex (Lemke, with Bland's rule) and extended; an ancestor's must first have
rows that are a prefix of the system's, or the solve goes cold; if a changed b
has made its basis suboptimal, the restart runs on the costs the basis was
kept for, and phase 2 prices every column for the system's own.  A kept basis
is optimal for the costs -b whatever c is, and c only changes the basic
values, so the dual simplex makes them feasible again; if it cannot, the
primal is unbounded along c and the solve goes cold, which builds and checks
the ray.  A start carries what its kept basis proves: the columns whose
reduced costs are already <= 0 (a kept basis's rows, unless a changed b
changed their costs), which phase 2's first scan skips, and the multipliers,
which are built once per basis.  A restart on all of the system's rows is then
optimal and skips phase 2; a wrong one leaves a positive reduced cost on some
row i, which is ``A_i p > b_i |d|`` for the point p, and so fails the
feasibility check of every optimum.  A pivot replaces the inverse's rows and
never writes into them, so any number of derived systems and objectives can
start from one kept basis.  A basis whose phase 1 dropped a redundant equality
is never kept, because added rows can make that equality matter again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional

from .vectors import _ZERO, Scalar, Vector, format_rational, parse_integer, parse_rational


class DimensionMismatch(ValueError):
    pass


class SolverError(RuntimeError):
    """An extracted outcome failed its exact verification (solver bug)."""


class InequalitySystem:
    """A finite system of linear inequalities ``A x <= b`` over Q^n.

    Immutable; rows are addressable by index.  ``m == 0`` is allowed (the
    whole space), ``n >= 1`` is required.  Stored once, as the scaled rows
    ``_rows = (mat, rhs, sigmas)`` of ``_scale_rows``, whose least scales make
    them one-to-one with the rows.  ``from_text``, ``to_text`` and the
    generators (through ``_scaled``) read and write these rows directly.
    ``matrix``, ``rhs`` and ``rows()`` build the Vector and Fraction form on
    each read and decide nothing; no I/O path reads them, but ``implies_R``,
    ``recompile``'s leaf rows, ``bench/spans.py`` and the tests do.
    """

    __slots__ = ("n", "_rows", "_empty", "_outcomes", "_tableaux", "_ancestry")

    def __init__(self, matrix: Iterable, rhs: Iterable[Scalar], n: int | None = None):
        rows = tuple(a if isinstance(a, Vector) else Vector(a) for a in matrix)
        rhs = tuple(b if type(b) is Fraction else Fraction(b) for b in rhs)
        if len(rows) != len(rhs):
            raise DimensionMismatch("matrix and rhs row counts differ")
        if rows:
            dims = {len(a) for a in rows}
            if len(dims) != 1:
                raise DimensionMismatch("rows of differing dimension")
            inferred = dims.pop()
            if n is not None and n != inferred:
                raise DimensionMismatch("explicit n disagrees with row dimension")
            n = inferred
        if n is None or n < 1:
            raise ValueError("dimension n >= 1 required (pass n= for empty systems)")
        self._adopt(n, _scale_rows(zip(rows, rhs)), None)

    def _adopt(self, n: int, rows, ancestry) -> None:
        self.n, self._rows = n, rows
        self._empty: FarkasCertificate | bool | None = None
        self._outcomes: dict[tuple[Fraction, ...], LpOutcome] = {}
        # final tableaux of optimal solves, by objective, for derived systems
        # to warm-start from; a derived system links to its parent's as
        # ``(parent._tableaux, parent._ancestry)``
        self._tableaux: dict[tuple[Fraction, ...], _DualTableau] = {}
        self._ancestry = ancestry

    @staticmethod
    def _scaled(n: int, rows, ancestry=None) -> "InequalitySystem":
        """The system in n variables on checked scaled rows ``(mat, rhs,
        sigmas)``, each row scaled by its least sigma as ``_scale_rows``
        scales it; ``ancestry`` links a derived system to its parent's kept
        tableaux for warm starts."""
        system = object.__new__(InequalitySystem)
        system._adopt(n, rows, ancestry)
        return system

    @property
    def m(self) -> int:
        return len(self._rows[1])

    @property
    def matrix(self) -> tuple[Vector, ...]:
        out = []
        for row, sigma in zip(self._rows[0], self._rows[2]):
            entries = [_ZERO] * self.n
            for j, v in row:
                entries[j] = Fraction(v, sigma)
            out.append(Vector(entries))
        return tuple(out)

    @property
    def rhs(self) -> tuple[Fraction, ...]:
        _, rhs, sigmas = self._rows
        return tuple(Fraction(b, sigma) for b, sigma in zip(rhs, sigmas))

    def rows(self) -> Iterable[tuple[Vector, Fraction]]:
        return zip(self.matrix, self.rhs)

    def with_rows(self, extra: Iterable[tuple]) -> "InequalitySystem":
        """The system with the rows ``(a, b)`` appended; only they are checked."""
        extra = [(a if isinstance(a, Vector) else Vector(a), Fraction(b)) for a, b in extra]
        if any(len(a) != self.n for a, _ in extra):
            raise DimensionMismatch("appended row disagrees with the system's dimension")
        return self._appended(*_scale_rows(extra))

    def _appended(self, mat, rhs, sigmas) -> "InequalitySystem":
        """The system with the checked scaled rows ``(mat, rhs, sigmas)``
        appended."""
        return self._derived(tuple(old + new for old, new in zip(self._rows, (mat, rhs, sigmas))))

    def with_rhs(self, index: int, b: Scalar) -> "InequalitySystem":
        """The system with the right-hand side of row ``index`` replaced by b."""
        mat, rhs, sigmas = rows = tuple(list(part) for part in self._rows)
        row, sigma = mat[index], sigmas[index]
        # the least scale of the normal alone is sigma over the gcd of sigma
        # and the scaled normal's entries; b's denominator joins it
        scale = lcm(sigma // gcd(sigma, *(v for _, v in row)), b.denominator)
        mat[index] = tuple((j, v * scale // sigma) for j, v in row)
        rhs[index] = b.numerator * (scale // b.denominator)
        sigmas[index] = scale
        return self._derived(rows)

    def _derived(self, rows) -> "InequalitySystem":
        """A system on checked scaled rows, sharing this one's dimension and
        linked to its kept tableaux for warm starts."""
        return InequalitySystem._scaled(self.n, rows, (self._tableaux, self._ancestry))

    def with_equality(self, a: Vector, b: Scalar) -> "InequalitySystem":
        """Append ``a x = b`` as the two opposing inequality rows, ``a x <= b``
        scaled once and then negated."""
        if len(a) != self.n:
            raise DimensionMismatch("appended row disagrees with the system's dimension")
        row, b, sigma = _scale_row(a, Fraction(b))
        return self._appended([row, tuple((j, -v) for j, v in row)], [b, -b], [sigma, sigma])

    def contains(self, x: Vector) -> bool:
        """``A x <= b``, in integers on the scaled rows."""
        if len(x) != self.n:
            raise DimensionMismatch(f"point has dim {len(x)}, system has n={self.n}")
        x_int, den = _over_common_denominator(x)
        return all(sum([x_int[j] * v for j, v in row]) <= b * den
                   for row, b in zip(*self._rows[:2]))

    @staticmethod
    def box(n: int, lo: Scalar, hi: Scalar) -> "InequalitySystem":
        """The box ``lo <= x_i <= hi`` in R^n."""
        if n < 1:
            raise ValueError("dimension n >= 1 required (pass n= for empty systems)")
        return InequalitySystem._scaled(n, _box_rows(n, lo, hi))

    def __eq__(self, other) -> bool:
        return (isinstance(other, InequalitySystem)
                and (self.n, self._rows) == (other.n, other._rows))

    def __repr__(self) -> str:
        return f"InequalitySystem(n={self.n}, m={self.m})"

    # text format: line 1 "n m" (n, m >= 1), then m lines "a_1 ... a_n b";
    # both directions go between the text and the scaled rows, and a row
    # with sigma = 1, as every row of an integer system, never meets a Fraction

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        for row, b, sigma in zip(*self._rows):
            entries = ["0"] * self.n
            if sigma == 1:
                for j, v in row:
                    entries[j] = str(v)
                entries.append(str(b))
            else:
                for j, v in row:
                    entries[j] = format_rational(Fraction(v, sigma))
                entries.append(format_rational(Fraction(b, sigma)))
            lines.append(" ".join(entries))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "InequalitySystem":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty system description")
        header = lines[0].split()
        if len(header) != 2:
            raise ValueError("first line must be 'n m'")
        n, m = parse_integer(header[0]), parse_integer(header[1])
        # a row holds n + 1 numbers, so a system with rows bounds n by its
        # own length; a row-less one (all of Q^n, which no proof refutes)
        # would not, and the work on it, a witness say, grows with n
        if n < 1 or m < 1:
            raise ValueError(f"header 'n m' needs n >= 1 and m >= 1, found {n} {m}")
        body = lines[1:]
        if len(body) != m:
            raise ValueError(f"expected {m} rows, found {len(body)}")
        mat, rhs, sigmas = [], [], []
        for line in body:
            tokens = line.split()
            if len(tokens) != n + 1:
                raise ValueError(f"row needs {n + 1} rationals, found {len(tokens)}")
            if "/" in line:
                values = [parse_rational(t) for t in tokens]
                row, b, sigma = _scale_row(values[:n], values[n])
            else:
                values = [parse_integer(t) for t in tokens]
                row, b, sigma = tuple((j, v) for j, v in enumerate(values[:n]) if v), values[n], 1
            mat.append(row)
            rhs.append(b)
            sigmas.append(sigma)
        return InequalitySystem._scaled(n, (mat, rhs, sigmas))


def _box_rows(n: int, lo: Scalar, hi: Scalar):
    """The scaled rows ``(mat, rhs, sigmas)`` of the box ``lo <= x_i <= hi``
    in R^n: ``x_i <= hi``, then ``-x_i <= -lo``, for each i in turn."""
    lo, hi = Fraction(lo), Fraction(hi)
    mat, rhs, sigmas = [], [], []
    for i in range(n):
        mat += [((i, hi.denominator),), ((i, -lo.denominator),)]
        rhs += [hi.numerator, -lo.numerator]
        sigmas += [hi.denominator, lo.denominator]
    return mat, rhs, sigmas


def _scale_row(a, b) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """The row ``a x <= b`` times sigma, the least positive integer making it
    integral: its ``(index, value)`` nonzeros, its rhs and sigma.  The
    entries and b are ints or Fractions; an integral row is sigma = 1."""
    nonzeros = [(j, e) for j, e in enumerate(a) if e]
    if b.denominator == 1 and all(e.denominator == 1 for _, e in nonzeros):
        return tuple((j, e.numerator) for j, e in nonzeros), b.numerator, 1
    sigma = lcm(b.denominator, *(e.denominator for _, e in nonzeros))
    return (tuple((j, e.numerator * (sigma // e.denominator)) for j, e in nonzeros),
            b.numerator * (sigma // b.denominator), sigma)


def _scale_rows(rows) -> tuple[list[tuple[tuple[int, int], ...]], list[int], list[int]]:
    """``_scale_row`` of each row ``(a, b)``: the scaled rows as their
    ``(index, value)`` nonzeros, the scaled right-hand sides and the sigmas."""
    mat, rhs, sigmas = [], [], []
    for a, b in rows:
        row, b, sigma = _scale_row(a, b)
        mat.append(row)
        rhs.append(b)
        sigmas.append(sigma)
    return mat, rhs, sigmas


def _combine(rows, n: int, weights) -> tuple[list[int], int]:
    """``(sum w_i A_i, sum w_i b_i)`` on scaled rows ``(mat, rhs, sigmas)`` in
    n variables, for ``(i, w_i)`` pairs."""
    mat, rhs, _ = rows
    combo, total = [0] * n, 0
    for i, w in weights:
        for j, e in mat[i]:
            combo[j] += w * e
        total += w * rhs[i]
    return combo, total


def _weights(rows, nonzeros) -> tuple[list[tuple[int, int]], int]:
    """Nonzero rational multipliers, ``(i, lam_i)`` pairs, as integer weights
    on scaled rows ``(mat, rhs, sigmas)``.

    Each ``lam_i`` becomes ``(i, lam_i W / sigma_i)``, for sigma_i the
    row's scale and W the least common multiple of the ``den(lam_i) sigma_i``,
    so that ``_combine`` of the weights is W times ``(lam A, lam b)``; a weight
    has the sign of its multiplier.  Returns the weights and W.
    """
    sigmas = rows[2]
    w_den = lcm(*(y.denominator * sigmas[i] for i, y in nonzeros))
    return [(i, y.numerator * (w_den // (y.denominator * sigmas[i])))
            for i, y in nonzeros], w_den


def _over_common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integers ``v * D`` for the least common denominator ``D`` of the values."""
    values = list(values)
    denom = lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


class FarkasCertificate:
    """Nonnegative multipliers proving ``A x <= b`` empty: lam A = 0, lam b < 0.

    Stored as the row count ``m`` and the ``nonzeros``, the ``(row, lam_row)``
    pairs with ``lam_row != 0`` in row order, which is all that checking,
    writing or measuring one reads.  ``multipliers``, the dense Vector of all
    m entries, is built when first read and then kept.  Equal and hashed as
    ``(m, nonzeros)``.
    """

    __slots__ = ("m", "nonzeros", "_multipliers")

    def __init__(self, multipliers: Vector):
        self.m = len(multipliers)
        self.nonzeros = tuple((i, v) for i, v in enumerate(multipliers) if v)
        self._multipliers = multipliers

    @classmethod
    def _from_nonzeros(cls, m: int, nonzeros) -> "FarkasCertificate":
        """The certificate on m rows with these nonzero ``(row, Fraction)``
        pairs, given in row order."""
        out = object.__new__(cls)
        out.m, out.nonzeros, out._multipliers = m, tuple(nonzeros), None
        return out

    @property
    def multipliers(self) -> Vector:
        if self._multipliers is None:
            entries = [_ZERO] * self.m
            for i, v in self.nonzeros:
                entries[i] = v
            self._multipliers = Vector(entries)
        return self._multipliers

    def verify(self, system: InequalitySystem) -> bool:
        """Exactly, in integers on the scaled rows over the nonzeros only."""
        return self.failed_check(system) is None

    def failed_check(self, system: InequalitySystem) -> Optional[str]:
        """The first check the certificate fails on the system, or None: a
        wrong length, a negative multiplier, ``lam A != 0`` or ``lam b >= 0``."""
        return self._failed_check(system._rows, system.n)

    def _failed_check(self, rows, n: int) -> Optional[str]:
        """``failed_check`` on scaled rows ``(mat, rhs, sigmas)`` in n
        variables, which need not belong to a system."""
        if self.m != len(rows[0]):
            return f"wrong length: {self.m} multipliers for {len(rows[0])} rows"
        weights, _ = _weights(rows, self.nonzeros)
        for i, w in weights:
            if w < 0:
                return f"negative multiplier l_{i + 1}"
        combo, total = _combine(rows, n, weights)
        if any(combo):
            return "lam A != 0"
        if total >= 0:
            return "lam b >= 0"
        return None

    def __eq__(self, other) -> bool:
        if type(other) is not FarkasCertificate:
            return NotImplemented
        return (self.m, self.nonzeros) == (other.m, other.nonzeros)

    def __hash__(self) -> int:
        return hash((self.m, self.nonzeros))

    def __repr__(self) -> str:
        return f"FarkasCertificate({self.multipliers!r})"


class Optimal:
    """An optimum ``value`` with an optimal ``point`` and nonnegative ``dual``
    multipliers, ``dual A = c`` and ``dual b = value``.

    The solver checks an optimum in its own integers (``_check_optimal``)
    and stores them: the point as integers over one scale, the duals as
    integer weights on the scaled rows over another, in ``_parts``, which a
    certified lift reads as they are.  ``point`` and ``dual`` are built from
    them as Vectors when first read, the dual from its nonzeros, and then
    kept; ``value`` is a Fraction from the start.
    Equal, hashed and shown as the triple ``(value, point, dual)``.
    """

    __slots__ = ("value", "_parts", "_point", "_dual")

    def __init__(self, value: Fraction, point, scale, weights, sigmas, w_den):
        """The optimum with point ``point / scale`` and dual ``sigma_i w_i /
        w_den`` on each row i of the ``(i, w_i)`` weights, 0 elsewhere."""
        self.value, self._point, self._dual = value, None, None
        self._parts = (point, scale, weights, sigmas, w_den)

    @property
    def point(self) -> Vector:
        if self._point is None:
            point, scale = self._parts[:2]
            self._point = Vector(Fraction(v, scale) if v else _ZERO for v in point)
        return self._point

    @property
    def dual(self) -> Vector:
        if self._dual is None:
            _, _, weights, sigmas, w_den = self._parts
            entries = [_ZERO] * len(sigmas)
            for i, w in weights:
                entries[i] = Fraction(sigmas[i] * w, w_den)
            self._dual = Vector(entries)
        return self._dual

    def __eq__(self, other):
        if type(other) is not Optimal:
            return NotImplemented
        return (self.value, self.point, self.dual) == (other.value, other.point, other.dual)

    def __hash__(self):
        return hash((self.value, self.point, self.dual))

    def __repr__(self) -> str:
        return f"Optimal(value={self.value!r}, point={self.point!r}, dual={self.dual!r})"


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate


@dataclass(frozen=True)
class Unbounded:
    ray: Vector


# a | union, not typing.Union, whose cache would keep every imported copy
# of this module alive
LpOutcome = Optimal | Infeasible | Unbounded


def lp_optimize(system: InequalitySystem, c: Vector) -> LpOutcome:
    """Exact maximum of ``c x`` over ``A x <= b``, with certificate."""
    if len(c) != system.n:
        raise DimensionMismatch(f"objective has dim {len(c)}, system has n={system.n}")
    return _solve_max(system, c)


def is_empty(system: InequalitySystem) -> Optional[FarkasCertificate]:
    """A verified Farkas certificate iff the system is empty, else None; with
    no LP once a solve on the system has decided it."""
    if system._empty is None:
        if all(b >= 0 for b in system._rows[1]):
            system._empty = False  # x = 0 is feasible
        else:
            _solve_max(system, Vector.zero(system.n))  # sets system._empty
    return system._empty or None


# ---------------------------------------------------------------------------
# core solver: revised integer-pivot primal simplex on the LP dual
# ---------------------------------------------------------------------------


class _DualTableau:
    """Revised integer simplex for  max (-b) y  s.t.  A^T y = c, y >= 0.

    Columns are the m y variables, then one artificial per equality row.
    Only ``inv`` (``d`` times the basis inverse, one list per basis position)
    and ``beta`` (``d`` times the basic values) are stored; columns and reduced
    costs come from them and the sparse rows ``mat``, and ``run`` updates the
    multipliers by rank one per pivot and leaves them in ``multipliers``,
    where a kept tableau keeps them.  ``d`` starts at 1 and becomes the
    pivot element after each pivot, so every division is exact, and every
    integer equals the one a dense tableau ``d B^-1 [tau A^T | I | tau c]``
    would hold.
    """

    def __init__(self, mat: list[tuple[tuple[int, int], ...]], rhs_c: list[int]):
        self.mat = mat  # the sparse scaled rows, one per y column
        self.m = len(mat)  # number of y variables
        n = len(rhs_c)
        self.tau = [1 if cj >= 0 else -1 for cj in rhs_c]
        self.inv = [[1 if k == j else 0 for k in range(n)] for j in range(n)]
        self.beta = [abs(cj) for cj in rhs_c]
        self.basis = [self.m + j for j in range(n)]
        self.dropped: list[int] = []  # equality rows removed as redundant
        self.d = 1
        self.multipliers: Optional[list[int]] = None  # left by run and restarted
        self.rhs: Optional[list[int]] = None  # the scaled b it was kept for

    def extended(self, mat: list[tuple[tuple[int, int], ...]]) -> "_DualTableau":
        """A copy with one y column per row of ``mat`` beyond ``self.mat``.

        Needs ``self.mat`` to be a prefix of ``mat`` and no dropped rows.
        Columns are computed from the rows, so nothing is priced here, and
        the basis stays feasible (the right-hand side c is unchanged).
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, mat=mat, m=len(mat), dropped=[])
        twin.inv, twin.beta, twin.basis = list(self.inv), list(self.beta), list(self.basis)
        return twin

    def restarted(self, c_int: list[int], raw: list[int], prices: list[int]
                  ) -> Optional["_DualTableau"]:
        """A copy for the right-hand side ``c_int``, made feasible by dual
        simplex, or None if the LP dual is infeasible for it.

        The basis is optimal for the costs ``raw``, which c does not change,
        and ``prices`` are its multipliers for them; the copy keeps ``tau``
        and resets ``beta = inv (tau o c)``.  While a ``beta`` lacks d's sign,
        the least basic variable among them leaves (Bland) and
        ``_dual_entering`` picks the entering column; the multipliers are
        updated by rank one, as in ``run``, and left on the copy.
        """
        twin = self.extended(self.mat)
        tau_c = [t * v for t, v in zip(self.tau, c_int)]
        twin.beta = [sum(map(mul, row, tau_c)) for row in twin.inv]
        while True:
            sd = 1 if twin.d > 0 else -1
            wrong = [(var, pos) for pos, (var, v) in enumerate(zip(twin.basis, twin.beta))
                     if v * sd < 0]
            if not wrong:
                twin.multipliers = prices
                return twin
            pos = min(wrong)[1]
            col, cost = twin._dual_entering(pos, raw, prices)
            if col is None:
                return None
            row, d = twin.inv[pos], twin.d
            twin.pivot(pos, col, twin.column(col))
            prices = [(twin.d * x + cost * w) // d for x, w in zip(prices, row)]

    def _dual_entering(self, pos, raw, prices) -> tuple[int | None, int]:
        """Dual ratio test on the pivot row ``alpha = inv_pos (tau o A)``: the
        least column, with its cost, whose alpha lacks d's sign and whose ratio
        of d-scaled reduced cost to alpha is least; ``(None, 0)`` if no alpha
        qualifies (the primal is unbounded along c)."""
        d, sd = self.d, (1 if self.d > 0 else -1)
        row_tau = [w * t for w, t in zip(self.inv[pos], self.tau)]
        scaled = [t * v for t, v in zip(self.tau, prices)]
        basic = set(self.basis)  # alpha is d or 0 there: never taken
        best_col, best_cost, best_alpha = None, 0, 0
        for col, (r, a) in enumerate(zip(raw, self.mat)):
            if col in basic:
                continue
            alpha = 0
            for j, v in a:
                alpha += row_tau[j] * v
            if alpha * sd >= 0:
                continue
            cost = d * r
            for j, v in a:
                cost -= scaled[j] * v
            # cost / alpha against best_cost / best_alpha, cross-multiplied:
            # both alphas lack d's sign, so their product is > 0
            if best_col is None or cost * best_alpha < best_cost * alpha:
                best_col, best_cost, best_alpha = col, cost, alpha
        return best_col, best_cost

    def column(self, col: int) -> list[int]:
        """``d B^-1`` times column ``col`` of ``[tau A^T | I]``."""
        if col >= self.m:
            return [row[col - self.m] for row in self.inv]
        a = [(j, self.tau[j] * v) for j, v in self.mat[col]]
        out = []
        for row in self.inv:
            total = 0
            for j, v in a:
                total += row[j] * v
            out.append(total)
        return out

    def prices(self, raw: list[int]) -> list[int]:
        """``d`` times the simplex multipliers of the per-column costs ``raw``."""
        out = [0] * len(self.tau)
        for row, var in zip(self.inv, self.basis):
            coeff = raw[var]
            if coeff:
                out = [o + coeff * v for o, v in zip(out, row)]
        return out

    def objective_value(self, raw: list[int]) -> Fraction:
        total = sum(raw[var] * v for var, v in zip(self.basis, self.beta))
        return Fraction(total, self.d)

    def pivot(self, pos: int, col: int, column: list[int]) -> None:
        p, d = column[pos], self.d
        row_r, beta_r = self.inv[pos], self.beta[pos]
        inv, beta = [], []
        for idx, (row, v, f) in enumerate(zip(self.inv, self.beta, column)):
            if idx != pos:
                if f:
                    row = [(p * x - f * w) // d for x, w in zip(row, row_r)]
                    v = (p * v - f * beta_r) // d
                elif p != d:
                    row = [(p * x) // d for x in row]
                    v = (p * v) // d
            inv.append(row)
            beta.append(v)
        self.inv, self.beta = inv, beta
        self.d = p
        self.basis[pos] = col

    def _entering(self, raw, prices, artificials, start) -> tuple[int | None, int]:
        """Bland's rule from column ``start`` on: the first column, with its
        cost, whose d-scaled reduced cost ``d raw[k] - (prices o tau) A_k``
        (artificial j: ``A_k = tau_j e_j``) has d's sign; ``(None, 0)`` at
        optimum.  Basic columns, whose reduced costs are 0, are skipped."""
        d, sd = self.d, (1 if self.d > 0 else -1)
        scaled = [t * v for t, v in zip(self.tau, prices)]
        rows = self.mat
        if artificials:
            rows = rows + [((j, t),) for j, t in enumerate(self.tau)]
        if start:
            raw, rows = raw[start:], rows[start:]
        basic = set(self.basis)
        for col, (r, a) in enumerate(zip(raw, rows), start):
            if col in basic:
                continue
            cost = d * r
            for j, v in a:
                cost -= scaled[j] * v
            if cost * sd > 0:
                return col, cost
        return None, 0

    def _leaving(self, column: list[int]) -> int | None:
        """Bland ratio test; returns a basis position or None (unbounded)."""
        sd = 1 if self.d > 0 else -1
        best_pos = None
        best_num = best_coeff = 0
        for pos, (coeff, num) in enumerate(zip(column, self.beta)):
            if coeff * sd <= 0:
                continue
            if best_pos is not None:
                # num / coeff against best_num / best_coeff, cross-multiplied:
                # both coefficients have the sign of sd, so their product is > 0
                left, right = num * best_coeff, best_num * coeff
                if left > right or (
                    left == right and self.basis[pos] > self.basis[best_pos]
                ):
                    continue
            best_pos, best_num, best_coeff = pos, num, coeff
        return best_pos

    def run(self, raw: list[int], artificials: bool, start: int = 0) -> int | None:
        """Bland-rule simplex for the per-column costs ``raw``, entering
        artificial columns only if asked; None at optimum, with the
        multipliers left in ``multipliers``, else the unbounded column.

        The first scan begins at column ``start``: the columns before it
        must have reduced costs <= 0 for ``raw``, so Bland's first improving
        column, and every pivot, are those of a scan from 0.  For ``start >
        0`` the multipliers on the tableau must be those of ``raw``; for 0
        they are built here.
        """
        prices = self.multipliers if start else self.prices(raw)
        while True:
            col, cost = self._entering(raw, prices, artificials, start)
            if col is None:
                self.multipliers = prices
                return None
            start = 0
            column = self.column(col)
            pos = self._leaving(column)
            if pos is None:
                return col
            row, d = self.inv[pos], self.d
            self.pivot(pos, col, column)
            # rank one: (p prices + cost row) / d, p the pivot (the new d)
            prices = [(self.d * x + cost * w) // d for x, w in zip(prices, row)]

    def drive_out_artificials(self) -> None:
        """Pivot every basic artificial out; drop rows of redundant equalities.

        Only called when the phase-1 optimum is zero, so every basic artificial
        sits at value 0 and these pivots are degenerate (feasibility kept).
        """
        pos = 0
        while pos < len(self.basis):
            if self.basis[pos] < self.m:
                pos += 1
                continue
            col = next((c for c in range(self.m) if self.column(c)[pos]), None)
            if col is None:
                self.dropped.append(self.basis[pos] - self.m)
                del self.inv[pos], self.beta[pos], self.basis[pos]
                continue
            self.pivot(pos, col, self.column(col))
            pos += 1


class _Key(tuple):
    """An objective's entries, equal to and hashed as the tuple, by ``hash`` set once."""

    def __hash__(self):
        return self.hash


def _solve_max(system: InequalitySystem, c: Vector) -> LpOutcome:
    """The verified outcome of max ``c x`` over the system, memoized on it."""
    key = _Key(c.entries)
    key.hash = hash(c.entries)
    outcome = system._outcomes.get(key)
    if outcome is None:
        outcome = system._outcomes[key] = _solve_verified(system, c, key)
    return outcome


def _kept_start(system: InequalitySystem, key: _Key, c_int: list[int], raw: list[int]
                ) -> tuple[Optional[_DualTableau], int]:
    """The kept basis a solve of c starts from, extended to the system's
    rows, and how many leading columns have reduced cost <= 0 for ``raw``;
    ``(None, 0)`` if the solve must go cold.

    One walk over the system's kept tableaux and its ancestors': the first
    basis kept for c whose scaled rows are a prefix of the system's is
    extended, its columns priced if the system's scaled b on those rows is
    the kept one (else ``with_rhs`` changed a cost, and none are).  Else the
    last basis of the first dict that keeps any is restarted for c and
    extended, its columns priced by the dual simplex: the system's own,
    which is optimal for its costs, or an ancestor's, once its rows are
    checked to be a prefix of the system's and, where its b is not the
    system's, its basis dual feasible for their costs.  An ancestor's basis
    that is not is restarted on the costs of its own b, and none of its
    columns count as priced.  A restart reuses the kept multipliers wherever
    the costs are the kept ones.
    """
    mat, rhs = system._rows[:2]
    link, other = (system._tableaux, system._ancestry), None
    while link is not None:
        kept, link = link
        tab = kept.get(key)
        if tab is not None and tab.mat == mat[:tab.m]:
            return tab.extended(mat), tab.m if tab.rhs == rhs[:tab.m] else 0
        other = other or kept
    if not other:
        return None, 0
    tab = next(reversed(other.values()))
    m, start = system.m, tab.m
    costs = raw if start == m else raw[:start] + raw[m:]
    own = tab.mat is mat  # only the system's own tableaux are on its rows
    prices = tab.multipliers
    if not own:
        if tab.mat != mat[:start]:
            return None, 0
        if tab.rhs != rhs[:start]:
            prices = tab.prices(costs)
            if tab._entering(costs, prices, False, 0)[0] is not None:
                # optimal for its own b only: phase 2 then prices every column
                costs, prices, start = [-v for v in tab.rhs] + raw[m:], tab.multipliers, 0
    tab = tab.restarted(c_int, costs, prices)
    if tab is None:
        return None, 0
    return (tab if own else tab.extended(mat)), start


def _solve_verified(system: InequalitySystem, c: Vector, key: _Key) -> LpOutcome:
    mat, rhs_b, sigmas = system._rows
    c_int, mu = _over_common_denominator(c)
    m, n = system.m, system.n

    # phase 2 maximizes -(scaled b) y over a feasible dual basis
    raw = [-v for v in rhs_b] + [0] * n
    tab, start = _kept_start(system, key, c_int, raw)
    if tab is None:
        tab = _DualTableau(mat, c_int)
        # phase 1: maximize minus the sum of artificials
        phase1 = [0] * m + [-1] * n
        if tab.run(phase1, artificials=True) is not None:
            raise SolverError("phase 1 objective cannot be unbounded")
        if tab.objective_value(phase1) != 0:
            # dual infeasible: the primal is unbounded or empty
            ray = Vector(Fraction(v, abs(tab.d)) for v in _primal(tab))
            _check_ray(system, c, ray)
            witness = is_empty(system)  # c = 0 never reaches this branch
            if witness is not None:
                return Infeasible(witness)
            return Unbounded(ray)
        tab.drive_out_artificials()

    # with every column priced (a restart on all rows) phase 2 has nothing to
    # do; a positive reduced cost on row i would be A_i p > b_i |d| for the
    # point p, which _check_optimal's feasibility scan rejects
    unb_col = None if start == m else tab.run(raw, False, start)

    if unb_col is not None:
        # unbounded dual ray == Farkas certificate of primal emptiness, scaled
        # to lam b = -1; any positive scale gives failed_check the same verdict
        ray = sorted(_ray_direction(tab, unb_col).items())
        slack = -sum(v * rhs_b[i] for i, v in ray)
        scale = slack if slack > 0 else abs(tab.d)
        cert = FarkasCertificate._from_nonzeros(
            m, [(i, Fraction(sigmas[i] * v, scale)) for i, v in ray])
        failure = cert.failed_check(system)
        if failure is None and len(ray) > n + 1:
            failure = "more than n+1 nonzero multipliers"
        if failure is not None:
            raise SolverError(f"dual ray is no Farkas certificate: {failure}")
        system._empty = cert
        return Infeasible(cert)

    # the optimum in the tableau's integers: the point is p / |d|, the dual
    # on row i is sigma_i w_i / (mu |d|), for w_i = sd beta_i on basic rows
    scale, sd = abs(tab.d), (1 if tab.d > 0 else -1)
    point = _primal(tab)
    weights = [(var, sd * v) for var, v in zip(tab.basis, tab.beta) if v and var < m]
    total = _check_optimal(system, c_int, point, weights, scale)
    system._empty = False
    if not tab.dropped:
        # a dropped equality may stop being redundant once rows are added
        tab.rhs = rhs_b
        system._tableaux[key] = tab
    w_den = mu * scale
    return Optimal(Fraction(total, w_den), point, scale, weights, sigmas, w_den)


def _primal(tab: _DualTableau) -> list[int]:
    """``|d|`` times the primal vector, ``-sd tau_j prices_j`` per coordinate
    for the multipliers left on the tableau, and 0 for a dropped equality:
    the phase-1 ray, or the phase-2 optimal point."""
    sd = 1 if tab.d > 0 else -1
    dropped = set(tab.dropped)
    return [0 if j in dropped else -sd * t * v
            for j, (t, v) in enumerate(zip(tab.tau, tab.multipliers))]


def _ray_direction(tab: _DualTableau, col: int) -> dict[int, int]:
    """``|d|`` times the dual ray along the unbounded column, by y variable."""
    sd = 1 if tab.d > 0 else -1
    direction = {var: -sd * f for f, var in zip(tab.column(col), tab.basis) if f}
    direction[col] = abs(tab.d)
    return direction


def _check_ray(system: InequalitySystem, c: Vector, ray: Vector) -> None:
    """Require ``c r > 0`` and ``A r <= 0``, in integers on the scaled rows."""
    c_int, _ = _over_common_denominator(c)
    r_int, _ = _over_common_denominator(ray)
    if sum(map(mul, c_int, r_int)) <= 0:
        raise SolverError("extracted ray does not improve the objective")
    if any(sum([r_int[j] * v for j, v in row]) > 0 for row in system._rows[0]):
        raise SolverError("extracted ray leaves the recession cone")


def _check_optimal(system, c_int, point, weights, scale) -> int:
    """Require an optimum in integers on the scaled rows, and return its
    value times ``mu scale``, for ``c = c_int / mu``.

    The point is ``point / scale``, and the ``(i, w_i)`` weights put
    ``sigma_i w_i / (mu scale)`` on row i.  Checked: every ``w_i >= 0``,
    ``sum w_i A_i = scale c_int``, ``c_int point = sum w_i b_i`` (strong
    duality; the value is ``sum w_i b_i / (mu scale)``) and ``A_i point <= b_i
    scale`` on every scaled row.  The weights are read over their nonzeros.
    """
    if any(w < 0 for _, w in weights):
        raise SolverError("negative dual multiplier")
    combo, total = _combine(system._rows, system.n, weights)
    if combo != [scale * v for v in c_int]:
        raise SolverError("duals do not reproduce the objective")
    if sum(map(mul, c_int, point)) != total:
        raise SolverError("strong duality violated: the optimal point does not attain"
                          " the duals' value")
    mat, rhs, _ = system._rows
    for row, b in zip(mat, rhs):
        lhs = 0
        for j, v in row:
            lhs += point[j] * v
        if lhs > b * scale:
            raise SolverError("optimal point is infeasible")
    return total
