"""GaussianRational, the value that enters and leaves hyperq, and the oracle's
arithmetic of Q(i) on it (`dense.Qi`), which the tests compute with."""

from fractions import Fraction
from random import Random

from dense import Qi, conj, lift
from hyperq.scalars import GR_ZERO, GaussianRational, gr


def _rand(rng):
    num = rng.randint(-50, 50)
    den = rng.randint(1, 20)
    return Fraction(num, den)


def test_constants():
    assert GR_ZERO == 0
    assert gr(1) == 1
    assert Qi(0, 1) * Qi(0, 1) == -1


def test_field_axioms_random():
    rng = Random(7)
    for _ in range(200):
        x = Qi(_rand(rng), _rand(rng))
        y = Qi(_rand(rng), _rand(rng))
        z = Qi(_rand(rng), _rand(rng))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if y:
            assert (x / y) * y == x


def test_conjugate_and_norm():
    rng = Random(11)
    for _ in range(100):
        x = Qi(_rand(rng), _rand(rng))
        assert x * conj(x) == Qi(x.norm_sq())
        assert conj(conj(x)) == x
        assert (x + conj(x)).im == 0


def test_coerce_paths():
    assert GaussianRational.coerce(3) == gr(3)
    assert GaussianRational.coerce(Fraction(1, 2)) == gr(Fraction(1, 2))
    x = gr(1, 2)
    assert GaussianRational.coerce(x) is x


def test_mixed_arithmetic_with_ints_and_fractions():
    x = Qi(Fraction(1, 2), 1)
    assert x + 1 == gr(Fraction(3, 2), 1)
    assert 1 + x == x + 1
    assert x * 2 == gr(1, 2)
    assert 2 * x == x * 2
    assert x - Fraction(1, 2) == gr(0, 1)
    assert x / 2 == gr(Fraction(1, 4), Fraction(1, 2))


def test_oracle_reads_the_package_values_on_either_side():
    # hyperq's own GaussianRational has no operators: next to a Qi it is read by its value, either
    # side, and the result is a Qi
    x, g = Qi(Fraction(1, 2), 1), gr(3, -1)
    cases = [(g + x, gr(Fraction(7, 2))), (g - x, gr(Fraction(5, 2), -2)), (x - g, gr(Fraction(-5, 2), 2)),
             (g * x, gr(Fraction(5, 2), Fraction(5, 2))), (g / x, gr(Fraction(2, 5), Fraction(-14, 5))),
             (GR_ZERO - x, -x), (lift(g), g)]
    for got, want in cases:
        assert type(got) is Qi and got == want


def test_fraction_parts_are_kept_and_others_converted():
    class Half(Fraction):
        pass

    x, y = Fraction(3, 4), Fraction(-1, 6)
    g = GaussianRational(x, y)
    assert g.re is x and g.im is y
    h = GaussianRational(Half(3, 4), Half(-1, 6))
    assert type(h.re) is Fraction and type(h.im) is Fraction
    assert h == g and hash(h) == hash(g)
    assert [type(part) for part in (gr(2, -5).re, gr(2, -5).im)] == [Fraction, Fraction]


def test_equality_and_hash_for_real_values():
    assert gr(Fraction(3, 4)) == Fraction(3, 4)
    assert hash(gr(5)) == hash(5)
    assert gr(1, 1) != 1
    # a str is no number: __eq__ declines it, and the comparison falls back to identity
    assert (gr(1) == "1") is False


def test_str_forms():
    assert str(gr(0)) == "0"
    assert str(gr(Fraction(3, 4))) == "3/4"
    assert str(gr(0, 2)) == "2i"
    assert str(gr(1, 2)) == "1+2i"
    assert str(gr(1, -2)) == "1-2i"


def test_immutability():
    x = gr(1, 2)
    try:
        x.re = Fraction(5)
    except AttributeError:
        pass
    else:
        raise AssertionError("GaussianRational must be immutable")


def test_bool_and_zero_division():
    assert not gr(0)
    assert gr(0, 1)
    try:
        Qi(1) / GR_ZERO
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("division by zero must raise")
