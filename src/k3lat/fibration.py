"""Euler-number budgets and curve-count bounds for genus-one fibered
surfaces.

The Euler number 24 of the surface is distributed over the singular fibers
(plus wild ramification in small characteristics); for a quasi-elliptic
fibration the generic cuspidal fiber already contributes, leaving a budget
of 20.  Together with the rank bookkeeping of the trivial lattice this
pins down which uniform fiber configurations can occur and caps the number
of rational fiber components.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from typing import NamedTuple

from .kodaira import KodairaType, _series_euler, parse_tag, type_table


class UnsupportedContextError(ValueError):
    """The hypothesis flags contradict each other."""


class FiberInstance(namedtuple("FiberInstance", "type delta")):
    """A singular fiber with its wild-ramification contribution."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, type: KodairaType, delta: int = 0):
        self = super().__new__(cls, type, delta)
        # a bool is an int to isinstance, so its class is checked (``type`` is the field)
        if self.delta.__class__ is not int or self.delta < 0:
            raise ValueError(f"wild ramification term must be an int >= 0, got {self.delta!r}")
        if self.delta > 0 and not self.type.is_additive:
            raise ValueError(
                f"fiber {self.type.tag}: wild ramification occurs only at "
                "additive fibers"
            )
        return self

    @property
    def euler_contribution(self) -> int:
        return self.type.euler + self.delta


def fiber(tag: str, delta: int = 0) -> FiberInstance:
    """The fiber of Kodaira type ``tag`` with wild term ``delta``; a tag
    that is not a known type's ``str`` raises ``ValueError``."""
    return FiberInstance(type_table(tag), delta)


def _tag_sort_key(inst: FiberInstance) -> tuple:
    return (inst.type.weight, inst.type.tag, inst.delta)


def _fibers(tag: str, count: int, delta: int) -> list[FiberInstance]:
    """The ``count`` fibers of one profile entry: a count outside 1..24, or
    an ``In`` or ``I*n`` Euler number above the budget 24, raises
    ``ValueError`` before any fiber is built."""
    if not 1 <= count <= 24:
        raise ValueError(f"count {count} is not in 1..24")
    series, n = parse_tag(tag)
    if n is not None and _series_euler(series, n) > 24:
        raise ValueError(f"fiber type {tag} has Euler number above 24")
    return [fiber(tag, delta) for _ in range(count)]


class FibrationProfile(namedtuple("FibrationProfile", "fibers quasi_elliptic characteristic")):
    """Multiset of singular fibers of one genus-one fibration, held sorted;
    a fiber that is not a :class:`FiberInstance`, or a characteristic that
    is not None, 0 or a prime (:func:`_check_characteristic`), raises
    ``ValueError``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, fibers: tuple[FiberInstance, ...], quasi_elliptic: bool = False,
                characteristic: int | None = None):
        fibers = tuple(fibers)
        for f in fibers:
            if not isinstance(f, FiberInstance):
                raise ValueError(f"a fiber must be a FiberInstance, got {f!r}")
        fibers = tuple(sorted(fibers, key=_tag_sort_key))
        self = super().__new__(cls, fibers, quasi_elliptic, characteristic)
        if self.characteristic is not None:
            _check_characteristic(self.characteristic)
        if type(self.quasi_elliptic) is not bool:
            raise ValueError(f"quasi_elliptic must be a bool, got {self.quasi_elliptic!r}")
        if self.quasi_elliptic and self.characteristic not in (2, 3):
            raise ValueError(
                "quasi-elliptic fibrations exist only in characteristics 2 and 3"
            )
        if any(f.delta > 0 for f in self.fibers) and self.characteristic not in (2, 3):
            raise ValueError(
                "wild ramification occurs only in characteristics 2 and 3"
            )
        if self.quasi_elliptic and any(f.delta > 0 for f in self.fibers):
            raise ValueError(
                "the quasi-elliptic Euler budget carries no wild term"
            )
        return self

    def tags(self) -> tuple[str, ...]:
        return tuple(f.type.tag for f in self.fibers)

    def describe(self) -> str:
        counts = Counter(self.tags())
        parts = [
            (f"{k}x{tag}" if k > 1 else tag)
            for tag, k in sorted(counts.items(), key=lambda kv: (type_table(kv[0]).weight, kv[0]))
        ]
        return " + ".join(parts) if parts else "(no singular fibers)"


def profile(
    entries: list[tuple[str, int]] | list[tuple[str, int, int]],
    quasi_elliptic: bool = False,
    characteristic: int | None = None,
) -> FibrationProfile:
    """Build a profile from (tag, count[, delta]) entries, each a plain
    tuple or list; any other entry (a :class:`FiberInstance` is one), a
    count that is not an int (a bool is not) of at least 1, or an entry
    that a profile file may not hold (:func:`_fibers`) raises
    ``ValueError``."""
    fibers = []
    for item in entries:
        if type(item) not in (tuple, list) or len(item) not in (2, 3):
            raise ValueError(f"fiber entry must be (tag, count[, delta]), got {item!r}")
        tag, count = item[0], item[1]
        if type(count) is not int or count < 1:
            raise ValueError(f"fiber count must be an int >= 1, got {count!r}")
        fibers += _fibers(tag, count, item[2] if len(item) > 2 else 0)
    return FibrationProfile(tuple(fibers), quasi_elliptic, characteristic)


class BudgetReport(NamedTuple):
    ok: bool
    mode: str
    total: int
    expected: int
    component_total: int
    messages: tuple[str, ...] = ()


def budget_check(prof: FibrationProfile) -> BudgetReport:
    """Verify the Euler-number identity for the profile.

    Elliptic mode: the fiber Euler numbers plus wild terms must sum to 24.
    Quasi-elliptic mode: every fiber is additive and
    ``4 + sum (e - 2)`` over fibers with ``e > 2`` must equal 24.
    """
    messages: list[str] = []
    component_total = sum(f.type.component_count for f in prof.fibers)
    if prof.quasi_elliptic:
        mode = "quasi-elliptic"
        bad = [f.type.tag for f in prof.fibers if not f.type.is_additive]
        if bad:
            messages.append(
                f"multiplicative fibers {sorted(set(bad))} cannot occur on a "
                "quasi-elliptic fibration"
            )
        if prof.characteristic == 3:
            allowed = {"IV", "IV*", "II*"}
            bad3 = sorted(
                {
                    f.type.tag
                    for f in prof.fibers
                    if f.type.component_count >= 2 and f.type.tag not in allowed
                }
            )
            if bad3:
                messages.append(
                    f"reducible fibers {bad3} cannot occur quasi-elliptically "
                    "in characteristic 3 (only IV, IV*, II*)"
                )
        total = 4 + sum(
            f.type.euler - 2 for f in prof.fibers if f.type.euler > 2
        )
    else:
        mode = "elliptic"
        total = sum(f.euler_contribution for f in prof.fibers)
    ok = total == 24 and not messages
    if total != 24:
        messages.append(f"Euler budget off by {total - 24}")
    return BudgetReport(ok, mode, total, 24, component_total, tuple(messages))


def rational_component_bound(prof: FibrationProfile) -> int:
    """Cap on the number of rational curves among fiber components.

    Elliptic: the component total itself (at most 24 when the budget
    holds).  Quasi-elliptic: 20 plus the number of reducible fibers, since
    the cuspidal generic-fiber degenerations are excluded from the
    restricted count.
    """
    if prof.quasi_elliptic:
        reducible = sum(1 for f in prof.fibers if f.type.component_count >= 2)
        return 20 + reducible
    return sum(f.type.component_count for f in prof.fibers)


def shioda_tate_rank(prof: FibrationProfile, mw_rank: int = 0) -> int:
    """Rank of the span of fiber components, a general fiber, and sections:
    ``2 + sum (m_t - 1) + mw_rank``."""
    if type(mw_rank) is not int or mw_rank < 0:
        raise ValueError(f"Mordell-Weil rank must be an int >= 0, got {mw_rank!r}")
    return 2 + sum(f.type.component_count - 1 for f in prof.fibers) + mw_rank


def enumerate_uniform(rho_max: int) -> list[FibrationProfile]:
    """All uniform multiplicative configurations ``k x In`` with
    ``n k = 24``, ``n >= 2``, whose trivial lattice fits a Picard lattice
    of rank ``rho_max``."""
    if type(rho_max) is not int:
        raise ValueError(f"rho_max must be an int, got {rho_max!r}")
    if rho_max < 2:
        raise ValueError("rho_max must be >= 2")
    out = []
    for n in (2, 3, 4, 6, 8, 12, 24):
        k = 24 // n
        prof = profile([(f"I{n}", k)])
        if shioda_tate_rank(prof, 0) <= rho_max:
            out.append(prof)
    return out


# Miller-Rabin with the first 13 primes as bases decides primality for
# every n below the least strong pseudoprime to all of them
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality for ``n < _PRIME_TEST_LIMIT``."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_characteristic(p) -> None:
    """Raise ``ValueError`` unless ``p`` is an int (a bool is not), 0 or a
    prime below ``_PRIME_TEST_LIMIT``, where primality is decided exactly."""
    if type(p) is not int or p != 0 and not (p < _PRIME_TEST_LIMIT and _is_prime(p)):
        raise ValueError(f"characteristic must be an int, 0 or a prime, got {p!r}")


class SurfaceContext(namedtuple("SurfaceContext", "characteristic unirational artin_invariant")):
    """Hypothesis flags selecting the applicable curve-count bound.

    The characteristic is 0 or a prime (below ``_PRIME_TEST_LIMIT``, where
    primality is decided exactly); the Artin invariant of a supersingular
    surface lies in 1..10, and only such surfaces, in positive
    characteristic, have one.  Both are ints, not bools, and ``unirational``
    is a bool or None (unknown); anything else raises ``ValueError``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, characteristic: int = 0, unirational: bool | None = None,
                artin_invariant: int | None = None):
        self = super().__new__(cls, characteristic, unirational, artin_invariant)
        p, sigma = self.characteristic, self.artin_invariant
        _check_characteristic(p)
        if sigma is not None and (type(sigma) is not int or not 1 <= sigma <= 10):
            raise ValueError(f"Artin invariant must be an int in 1..10, got {sigma!r}")
        if sigma is not None and p == 0:
            raise ValueError("an Artin invariant needs a positive characteristic (supersingular)")
        if self.unirational is not None and type(self.unirational) is not bool:
            raise ValueError(f"unirational must be a bool or None, got {self.unirational!r}")
        return self


class SdBound(NamedTuple):
    """A curve-count bound with the degree threshold it needs.

    The bound applies to surfaces of polarization degree ``2h`` with
    ``h > h_threshold * d^2`` and caps the number of rational curves of
    degree at most ``d``; ``count`` says whether cuspidal genus-one
    degenerations are excluded (restricted count) or not.
    """

    bound: int
    count: str
    h_threshold: Fraction
    hypotheses: tuple[str, ...] = ()
    conjectural: str | None = None


def sd_bound(ctx: SurfaceContext, restricted: bool = False) -> SdBound:
    """The applicable curve-count bound for the given surface hypotheses.

    Outside characteristics 2 and 3 the count is 24.  In characteristic 2
    (resp. 3) the unrestricted count needs non-unirationality (resp.
    non-unirationality or large Artin invariant); otherwise the restricted
    count is bounded by 40 (resp. 30) at a slightly higher degree
    threshold.  A ``ctx`` that is not a :class:`SurfaceContext` raises
    ``ValueError``.
    """
    if not isinstance(ctx, SurfaceContext):
        raise ValueError(f"ctx must be a SurfaceContext, got {ctx!r}")
    if type(restricted) is not bool:
        raise ValueError(f"restricted must be a bool, got {restricted!r}")
    p = ctx.characteristic
    if p == 0 and ctx.unirational:
        raise UnsupportedContextError(
            "a characteristic-zero surface of this kind is never unirational"
        )
    if p not in (2, 3):
        hyp = [f"characteristic {p}"]
        if restricted:
            hyp.append(
                "restricted count equals the full count outside "
                "characteristics 2 and 3"
            )
        return SdBound(24, "S_d", Fraction(42), tuple(hyp))
    if p == 2:
        if not restricted and ctx.unirational is False:
            return SdBound(
                24, "S_d", Fraction(42), ("characteristic 2", "not unirational")
            )
        hyp = ["characteristic 2"]
        if ctx.unirational is True and not restricted:
            hyp.append(
                "unirational: no unrestricted bound applies, returning the "
                "restricted-count bound"
            )
        return SdBound(
            40,
            "S_d'",
            Fraction(185, 4),
            tuple(hyp),
            conjectural=(
                "for degree-1 curves the restricted bound is expected, but "
                "not proven, to drop to 25"
            ),
        )
    # p == 3
    sigma = ctx.artin_invariant
    if not restricted and (
        ctx.unirational is False or (sigma is not None and sigma > 6)
    ):
        hyp = ["characteristic 3"]
        hyp.append(
            "not unirational"
            if ctx.unirational is False
            else f"Artin invariant {sigma} > 6"
        )
        return SdBound(24, "S_d", Fraction(42), tuple(hyp))
    return SdBound(30, "S_d'", Fraction(43), ("characteristic 3",))


class DeclaredCurve(namedtuple("DeclaredCurve", "label genus h_degree")):
    """A declared curve class: ``label`` is a str, and the arithmetic genus
    ``genus`` and the H-degree ``h_degree`` are ints (a bool is not), else
    ``ValueError``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, label: str, genus: int, h_degree: int):
        if not isinstance(label, str):
            raise ValueError(f"a curve label must be a str, got {label!r}")
        for name, value in (("genus", genus), ("H-degree", h_degree)):
            if type(value) is not int:
                raise ValueError(f"curve {label}: the {name} must be an int, got {value!r}")
        return super().__new__(cls, label, genus, h_degree)


class DeclaredModel(namedtuple("DeclaredModel", "h_square h_two_divisible curves")):
    """A finite list of declared curve classes against which the
    very-ampleness criterion is checked; ``h_square`` is an even int,
    ``h_two_divisible`` a bool (a bool is not an int) and ``curves`` a tuple
    of :class:`DeclaredCurve`, else ``ValueError``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, h_square: int, h_two_divisible: bool, curves: tuple[DeclaredCurve, ...]):
        if type(h_square) is not int:
            raise ValueError(f"the polarization square must be an int, got {h_square!r}")
        if h_square % 2 != 0:
            raise ValueError("the polarization square must be even")
        if type(h_two_divisible) is not bool:
            raise ValueError(f"h_two_divisible must be a bool, got {h_two_divisible!r}")
        if not isinstance(curves, tuple) or not all(isinstance(c, DeclaredCurve) for c in curves):
            raise ValueError(f"curves must be a tuple of DeclaredCurve, got {curves!r}")
        return super().__new__(cls, h_square, h_two_divisible, curves)


class VeryAmpleVerdict(NamedTuple):
    passed: bool
    failed: tuple[str, ...]
    notes: tuple[str, ...]


def very_ample_check(model: DeclaredModel) -> VeryAmpleVerdict:
    """Check the three very-ampleness conditions over the declared curves.

    This verifies the criterion on the declared classes only; it is not a
    proof of very-ampleness, which would quantify over every curve on the
    surface.  The criterion itself assumes characteristic different
    from 2.
    """
    failed = []
    for c in model.curves:
        if c.h_degree <= 0:
            failed.append(
                f"positivity: H.{c.label} = {c.h_degree} is not positive"
            )
    for c in model.curves:
        if c.genus == 1 and c.h_degree <= 2:
            failed.append(
                f"genus-one degree: H.{c.label} = {c.h_degree} must exceed 2"
            )
    if model.h_square < 4:
        failed.append(f"square: H^2 = {model.h_square} must be at least 4")
    elif model.h_square == 8 and model.h_two_divisible:
        failed.append("square: H^2 = 8 with H 2-divisible is excluded")
    return VeryAmpleVerdict(
        passed=not failed,
        failed=tuple(failed),
        notes=(
            "verified on declared classes only, not a proof of "
            "very-ampleness",
            "the criterion assumes characteristic != 2",
        ),
    )
