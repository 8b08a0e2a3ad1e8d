import json
import re
from fractions import Fraction
from math import isqrt

import pytest

from k3lat import fibration
from k3lat.fibration import (
    DeclaredCurve,
    DeclaredModel,
    FibrationProfile,
    SurfaceContext,
    UnsupportedContextError,
    budget_check,
    enumerate_uniform,
    fiber,
    profile,
    rational_component_bound,
    sd_bound,
    shioda_tate_rank,
    very_ample_check,
)
from k3lat.formats import ValidationError, parse_profile


# -- budget ------------------------------------------------------------------


def test_budget_six_i4():
    report = budget_check(profile([("I4", 6)]))
    assert report.ok
    assert report.component_total == 24


def test_budget_quasi_elliptic_ten_iv():
    report = budget_check(profile([("IV", 10)], quasi_elliptic=True, characteristic=3))
    assert report.ok
    assert report.total == 24  # 4 + 10 * 2
    assert report.component_total == 30


def test_budget_quasi_elliptic_twenty_iii():
    report = budget_check(profile([("III", 20)], quasi_elliptic=True, characteristic=2))
    assert report.ok
    assert report.component_total == 40


def test_budget_failure_reports_discrepancy():
    report = budget_check(profile([("I4", 5)]))
    assert not report.ok
    assert report.total == 20
    assert any("off by -4" in m for m in report.messages)


def test_budget_wild_ramification():
    # an additive fiber may soak up extra Euler number in characteristic 2
    prof = profile([("III", 1, 1), ("I4", 5)], characteristic=2)
    assert budget_check(prof).ok  # 3 + 1 + 20 = 24


def test_budget_quasi_elliptic_rejects_multiplicative():
    prof = profile([("I4", 1), ("IV", 9)], quasi_elliptic=True, characteristic=3)
    report = budget_check(prof)
    assert not report.ok
    assert any("multiplicative" in m for m in report.messages)


def test_budget_quasi_elliptic_char3_reducible_types():
    prof = profile([("III", 20)], quasi_elliptic=True, characteristic=3)
    report = budget_check(prof)
    assert not report.ok
    assert any("characteristic 3" in m for m in report.messages)


def test_fiber_validation():
    with pytest.raises(ValueError):
        fiber("I4", delta=1)  # wild ramification needs an additive type
    with pytest.raises(ValueError):
        profile([("IV", 10)], quasi_elliptic=True, characteristic=5)
    with pytest.raises(ValueError):
        profile([("II", 1, 1)], characteristic=7)


# -- component bound and rank -------------------------------------------------


def test_component_bounds_attain_maxima():
    assert rational_component_bound(profile([("I4", 6)])) == 24
    assert (
        rational_component_bound(
            profile([("III", 20)], quasi_elliptic=True, characteristic=2)
        )
        == 40
    )
    assert (
        rational_component_bound(
            profile([("IV", 10)], quasi_elliptic=True, characteristic=3)
        )
        == 30
    )


def test_component_bound_counts_reducible_only():
    prof = profile(
        [("IV", 2), ("IV*", 3)], quasi_elliptic=True, characteristic=3
    )
    assert rational_component_bound(prof) == 25


def test_shioda_tate_examples():
    assert shioda_tate_rank(profile([("I4", 6)]), 0) == 20
    assert shioda_tate_rank(profile([("I6", 4)]), 0) == 22
    assert shioda_tate_rank(profile([("I8", 3)]), 0) == 23


def test_shioda_tate_additive_over_union():
    a = profile([("I4", 6)])
    b = profile([("I2", 3)])
    union = profile([("I4", 6), ("I2", 3)])
    assert (
        shioda_tate_rank(union, 0)
        == shioda_tate_rank(a, 0) + shioda_tate_rank(b, 0) - 2
    )


def test_shioda_tate_rejects_negative_mw():
    with pytest.raises(ValueError):
        shioda_tate_rank(profile([("I4", 6)]), -1)


# -- uniform enumeration --------------------------------------------------------


def test_enumerate_uniform_rho22():
    descs = [p.describe() for p in enumerate_uniform(22)]
    assert descs == ["12xI2", "8xI3", "6xI4", "4xI6"]


def test_enumerate_uniform_rho20():
    descs = [p.describe() for p in enumerate_uniform(20)]
    assert descs == ["12xI2", "8xI3", "6xI4"]


def test_enumerate_uniform_rho14():
    descs = [p.describe() for p in enumerate_uniform(14)]
    assert descs == ["12xI2"]


@pytest.mark.parametrize(
    "rho_max, message",
    [(20.5, "an int"), (22.0, "an int"), ("3", "an int"), (True, "an int"), (1, ">= 2")],
)
def test_enumerate_uniform_takes_an_int_of_at_least_two(rho_max, message):
    # 20.5 would compare as a rank and "3" raise TypeError; a bool is no rank
    with pytest.raises(ValueError, match=f"rho_max must be {message}"):
        enumerate_uniform(rho_max)


def test_enumerate_uniform_profiles_pass_budget():
    for prof in enumerate_uniform(22):
        report = budget_check(prof)
        assert report.ok
        assert all(
            not f.type.is_additive and f.type.component_count >= 2
            for f in prof.fibers
        )


# -- curve-count bounds -------------------------------------------------------------


def test_sd_bound_generic_characteristic():
    res = sd_bound(SurfaceContext(characteristic=5))
    assert (res.bound, res.count, res.h_threshold) == (24, "S_d", Fraction(42))


def test_sd_bound_char3_general():
    res = sd_bound(SurfaceContext(characteristic=3))
    assert (res.bound, res.count, res.h_threshold) == (30, "S_d'", Fraction(43))


def test_sd_bound_char2_general():
    res = sd_bound(SurfaceContext(characteristic=2))
    assert (res.bound, res.count, res.h_threshold) == (40, "S_d'", Fraction(185, 4))
    assert res.conjectural is not None


def test_sd_bound_char2_non_unirational():
    res = sd_bound(SurfaceContext(characteristic=2, unirational=False))
    assert (res.bound, res.count, res.h_threshold) == (24, "S_d", Fraction(42))


def test_sd_bound_char3_artin_invariant():
    res = sd_bound(SurfaceContext(characteristic=3, artin_invariant=7))
    assert (res.bound, res.count) == (24, "S_d")
    res = sd_bound(SurfaceContext(characteristic=3, artin_invariant=6))
    assert (res.bound, res.count) == (30, "S_d'")


def test_sd_bound_char2_unirational_note():
    res = sd_bound(SurfaceContext(characteristic=2, unirational=True))
    assert res.bound == 40
    assert any("unirational" in h for h in res.hypotheses)


def test_sd_bound_monotone_under_hypothesis_weakening():
    for p in (2, 3):
        general = sd_bound(SurfaceContext(characteristic=p)).bound
        stronger = sd_bound(
            SurfaceContext(characteristic=p, unirational=False)
        ).bound
        assert stronger <= general


def test_sd_bound_char0_unirational_unsupported():
    with pytest.raises(UnsupportedContextError):
        sd_bound(SurfaceContext(characteristic=0, unirational=True))


@pytest.mark.parametrize("p", [-3, -1, 1, 4, 9, 15, 561, 3215031751, 2**61 + 1])
def test_surface_context_rejects_non_prime_characteristic(p):
    with pytest.raises(ValueError, match="0 or a prime"):
        SurfaceContext(characteristic=p)


@pytest.mark.parametrize("sigma", [-4, 0, 11])
def test_surface_context_rejects_artin_invariant_out_of_range(sigma):
    with pytest.raises(ValueError, match="Artin invariant"):
        SurfaceContext(characteristic=3, artin_invariant=sigma)


def test_surface_context_rejects_artin_invariant_in_characteristic_0():
    # only supersingular surfaces have an Artin invariant, and they exist
    # only in positive characteristic; sd_bound read sigma = 3 at p = 0 as
    # a plain characteristic-0 surface
    for sigma in (1, 3, 10):
        with pytest.raises(ValueError, match="positive characteristic"):
            SurfaceContext(characteristic=0, artin_invariant=sigma)
        with pytest.raises(ValueError, match="positive characteristic"):
            SurfaceContext(characteristic=3, artin_invariant=sigma)._replace(characteristic=0)
    assert SurfaceContext(characteristic=0).artin_invariant is None


def _accepts_characteristic(p):
    try:
        SurfaceContext(characteristic=p)
    except ValueError:
        return False
    return True


def test_surface_context_primality_is_exact():
    # composites with no factor up to 41, such as 43^2 = 1849, reach the
    # Miller-Rabin rounds
    for n in list(range(1600, 1900)) + list(range(10**6, 10**6 + 300)):
        assert _accepts_characteristic(n) == all(n % q for q in range(2, isqrt(n) + 1)), n
    # the least strong pseudoprimes to every prime base up to 11, 13, 17,
    # 23 and 37, and to every one up to 41, where exact testing stops
    for n in (
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
        3317044064679887385961981,
    ):
        assert not _accepts_characteristic(n)


def test_surface_context_accepts_primes_and_artin_range():
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    for p in [0] + primes + [2**61 - 1, 1000000000000000003]:
        assert SurfaceContext(characteristic=p).characteristic == p
    composites = [n for n in range(4, 200) if n not in primes]
    for n in composites:
        with pytest.raises(ValueError):
            SurfaceContext(characteristic=n)
    for sigma in range(1, 11):
        assert SurfaceContext(characteristic=3, artin_invariant=sigma).artin_invariant == sigma


@pytest.mark.parametrize(
    "build",
    [
        # a float characteristic reached Miller-Rabin's pow() and raised TypeError
        lambda: SurfaceContext(characteristic=43.0),
        # ... or was accepted and reported as "characteristic 5.0"
        lambda: SurfaceContext(characteristic=5.0),
        lambda: SurfaceContext(characteristic=True),
        lambda: SurfaceContext(characteristic=3, artin_invariant=2.5),
        lambda: SurfaceContext(characteristic=3, artin_invariant=True),
        # an Euler contribution of 5.5
        lambda: fiber("IV", 1.5),
        lambda: fiber("IV", True),
        # a Shioda-Tate rank of 21.5
        lambda: shioda_tate_rank(profile([("I4", 6)]), 1.5),
        lambda: shioda_tate_rank(profile([("I4", 6)]), False),
        # 2.0 passed the "characteristic 2 or 3" test
        lambda: profile([("IV", 10)], quasi_elliptic=True, characteristic=2.0),
    ],
)
def test_fibration_inputs_must_be_ints(build):
    with pytest.raises(ValueError, match="must be an int"):
        build()


@pytest.mark.parametrize("flag", [0, 1, "no", 2.0])
def test_surface_context_unirational_is_a_bool_or_none(flag):
    # 0 read as "unknown" (40 in characteristic 2) and "no" as unirational
    with pytest.raises(ValueError, match="unirational must be a bool or None"):
        SurfaceContext(characteristic=2, unirational=flag)
    for known in (None, True, False):
        assert SurfaceContext(characteristic=2, unirational=known).unirational is known


@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_profile_quasi_elliptic_is_a_bool(flag):
    # "no" read as quasi-elliptic, so budget_check switched mode
    with pytest.raises(ValueError, match="quasi_elliptic must be a bool"):
        profile([("IV", 10)], quasi_elliptic=flag, characteristic=3)
    for known in (True, False):
        prof = profile([("IV", 10)], quasi_elliptic=known, characteristic=3)
        assert budget_check(prof).mode == ("quasi-elliptic" if known else "elliptic")


@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_sd_bound_restricted_is_a_bool(flag):
    # "no" returned the restricted bound 30 / S_d' in characteristic 3
    with pytest.raises(ValueError, match="restricted must be a bool"):
        sd_bound(SurfaceContext(3), restricted=flag)
    assert sd_bound(SurfaceContext(3, unirational=False), restricted=False).bound == 24
    assert sd_bound(SurfaceContext(3, unirational=False), restricted=True).bound == 30


@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_declared_model_two_divisibility_is_a_bool(flag):
    # "no" failed "H^2 = 8 with H 2-divisible"
    with pytest.raises(ValueError, match="h_two_divisible must be a bool"):
        DeclaredModel(8, flag, ())
    assert very_ample_check(DeclaredModel(8, False, ())).passed
    assert not very_ample_check(DeclaredModel(8, True, ())).passed


@pytest.mark.parametrize("h_square", [8.0, True, "8", None])
def test_declared_model_square_is_an_int(h_square):
    # 8.0 was accepted, and True was read as the odd square 1
    with pytest.raises(ValueError, match="the polarization square must be an int"):
        DeclaredModel(h_square, False, ())
    with pytest.raises(ValueError, match="the polarization square must be an int"):
        DeclaredModel(8, False, ())._replace(h_square=h_square)


def test_quasi_elliptic_profile_carries_no_wild_term():
    # a wild term needs characteristic 2 or 3, and so does a quasi-elliptic
    # fibration, but its Euler budget has no place for one
    with pytest.raises(ValueError, match="the quasi-elliptic Euler budget carries no wild term"):
        profile([("IV", 10, 1)], quasi_elliptic=True, characteristic=3)
    assert profile([("IV", 10, 1)], characteristic=3).fibers[0].delta == 1


@pytest.mark.parametrize("count", [-3, 0, 2.5, True, "2"])
def test_profile_count_is_an_int_of_at_least_one(count):
    # -3 and 0 gave an empty profile, 2.5 a TypeError
    with pytest.raises(ValueError, match="fiber count must be an int >= 1"):
        profile([("I2", count)])
    assert len(profile([("I2", 1)]).fibers) == 1


@pytest.mark.parametrize(
    "entry, error",
    [
        (("I1", 10**6), "count 1000000 is not in 1..24"),
        (("I30", 1), "fiber type I30 has Euler number above 24"),
    ],
)
def test_profile_rejects_what_a_profile_file_may_not_hold(monkeypatch, entry, error):
    # a million I1 fibres were built one by one, and I30 was accepted,
    # although a profile file holding either is an input error
    built = []
    monkeypatch.setattr(fibration, "fiber", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=error):
        profile([entry])
    assert built == []
    with pytest.raises(ValidationError, match=error):
        parse_profile(json.dumps({"fibers": [{"type": entry[0], "count": entry[1]}]}))


@pytest.mark.parametrize("p", [4, -3, 1, 6, True])
def test_profile_characteristic_is_none_zero_or_a_prime(p):
    # a profile in characteristic 4 was built, and k3lat budget passed it
    with pytest.raises(ValueError, match="characteristic must be an int, 0 or a prime"):
        profile([("I4", 6)], characteristic=p)
    with pytest.raises(ValueError, match="characteristic must be an int, 0 or a prime"):
        profile([("I4", 6)])._replace(characteristic=p)
    for q in (None, 0, 2, 5):
        assert profile([("I4", 6)], characteristic=q).characteristic == q


@pytest.mark.parametrize("fibers", [("I2",), (("I2", 1),), (None,), "I2"])
def test_profile_fibers_are_fiber_instances(fibers):
    # a tag raised AttributeError from the sort key
    with pytest.raises(ValueError, match="a fiber must be a FiberInstance"):
        FibrationProfile(fibers)
    with pytest.raises(ValueError, match="a fiber must be a FiberInstance"):
        profile([("I2", 12)])._replace(fibers=fibers)
    assert FibrationProfile((fiber("I2"),)).tags() == ("I2",)


@pytest.mark.parametrize("ctx", ["3", 3, None, (3, None, None)])
def test_sd_bound_context_is_a_surface_context(ctx):
    # "3" raised AttributeError on ctx.characteristic
    with pytest.raises(ValueError, match="ctx must be a SurfaceContext"):
        sd_bound(ctx)


def test_fibration_int_inputs_still_accepted():
    assert sd_bound(SurfaceContext(characteristic=5)).hypotheses[0] == "characteristic 5"
    assert fiber("IV", 1).euler_contribution == 5
    assert shioda_tate_rank(profile([("I4", 6)]), 1) == 21
    assert profile([("IV", 10)], quasi_elliptic=True, characteristic=3).characteristic == 3


# -- very-ampleness criterion ------------------------------------------------------


def _model(curves, h_square=8, two_div=False):
    return DeclaredModel(h_square, two_div, tuple(curves))


def test_very_ample_pass():
    verdict = very_ample_check(
        _model([DeclaredCurve("C", 0, 1), DeclaredCurve("E", 1, 5)])
    )
    assert verdict.passed
    assert any("declared classes only" in n for n in verdict.notes)


def test_very_ample_genus_one_failure():
    verdict = very_ample_check(
        _model([DeclaredCurve("C", 0, 1), DeclaredCurve("E", 1, 2)])
    )
    assert not verdict.passed
    assert any("genus-one" in f for f in verdict.failed)


@pytest.mark.parametrize(
    "fields, message",
    [
        (("E", 1, 2.5), "curve E: the H-degree must be an int, got 2.5"),
        (("E", 1, True), "curve E: the H-degree must be an int, got True"),
        (("E", 1.0, 3), "curve E: the genus must be an int, got 1.0"),
        (("E", False, 3), "curve E: the genus must be an int, got False"),
        ((5, 1, 3), "a curve label must be a str, got 5"),
        ((None, 1, 3), "a curve label must be a str, got None"),
    ],
)
def test_declared_curve_fields_are_typed(fields, message):
    # H-degree 2.5 passed the very-ampleness check as "exceeds 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        DeclaredCurve(*fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        DeclaredCurve("E", 1, 3)._replace(**dict(zip(DeclaredCurve._fields, fields)))


@pytest.mark.parametrize("curves", [("x",), (("E", 1, 3),), [DeclaredCurve("E", 1, 3)], None])
def test_declared_model_curves_are_a_tuple_of_declared_curves(curves):
    # a member "x" raised AttributeError in very_ample_check
    with pytest.raises(ValueError, match="curves must be a tuple of DeclaredCurve"):
        DeclaredModel(8, False, curves)
    with pytest.raises(ValueError, match="curves must be a tuple of DeclaredCurve"):
        DeclaredModel(8, False, ())._replace(curves=curves)
    assert very_ample_check(DeclaredModel(8, False, (DeclaredCurve("E", 1, 3),))).passed


def test_very_ample_two_divisible_failure():
    verdict = very_ample_check(_model([DeclaredCurve("C", 0, 1)], 8, True))
    assert not verdict.passed
    assert any("2-divisible" in f for f in verdict.failed)


def test_very_ample_small_square_failure():
    verdict = very_ample_check(_model([DeclaredCurve("C", 0, 1)], 2))
    assert not verdict.passed


def test_very_ample_nonpositive_degree_failure():
    verdict = very_ample_check(_model([DeclaredCurve("C", 0, 0)]))
    assert not verdict.passed
    assert any("positivity" in f for f in verdict.failed)


def test_declared_model_validation():
    with pytest.raises(ValueError):
        DeclaredModel(7, False, ())


@pytest.mark.parametrize(
    "record, change",
    [
        (fiber("IV", 1), {"delta": -1}),
        (fiber("I2"), {"delta": 1}),
        (profile([("I2", 1)]), {"quasi_elliptic": True}),
        (SurfaceContext(2), {"characteristic": 4}),
        (SurfaceContext(3), {"artin_invariant": 11}),
        (DeclaredModel(8, False, ()), {"h_square": 7}),
    ],
)
def test_record_copies_are_checked(record, change):
    # _replace builds the copy through the constructor, checks included
    with pytest.raises(ValueError):
        record._replace(**change)


def test_profile_copies_stay_sorted():
    prof = profile([("I4", 1), ("I2", 2)])
    assert prof._replace(fibers=prof.fibers[::-1]) == prof
    assert prof._replace(characteristic=3).tags() == ("I2", "I2", "I4")


@pytest.mark.parametrize("tag", [None, 4, ["I2"], b"I2"])
def test_fiber_rejects_a_tag_that_is_not_a_known_str(tag):
    # None and 4 raised TypeError from the tag regex, ["I2"] a TypeError
    # as unhashable
    with pytest.raises(ValueError):
        fiber(tag)
    with pytest.raises(ValueError):
        profile([(tag, 1)])


@pytest.mark.parametrize("inst", [fiber("I2"), fiber("IV", 1)])
def test_profile_never_reads_a_fiber_instance_as_an_entry(inst):
    # a FiberInstance is the 2-tuple (type, delta): read as (tag, count),
    # fiber("IV", 1) would ask for one fibre of the tag type_table("IV")
    assert len(inst) == 2
    with pytest.raises(ValueError, match=r"fiber entry must be \(tag, count\[, delta\]\)"):
        profile([inst], characteristic=3)


@pytest.mark.parametrize("entry", [("I2",), ("I2", 1, 0, 9), "I2", None, {"I2": 1}])
def test_profile_rejects_an_entry_of_another_shape(entry):
    # ("I2",) raised IndexError, and ("I2", 1, 0, 9) dropped its last item
    with pytest.raises(ValueError, match=r"fiber entry must be \(tag, count\[, delta\]\)"):
        profile([entry])
    assert profile([["I2", 2], ("IV", 1, 1)], characteristic=3).tags() == ("I2", "I2", "IV")
