import pytest

from isolat.catalog import CIRCLE, FULL, TETRA, canonical_rep, parse_tag
from isolat.errors import ClassNotInLattice, NotRealizableInG, NotTotallyIsotropic
from isolat.lift import lifted_lattice
from isolat.momentum import (
    is_totally_isotropic,
    mu_lattice,
    relative_equilibria_lattice,
    zero_level_lattice,
)
from isolat.poset import IsotropyLattice, build_lattice, up_set


def tags(names):
    return [parse_tag(s) for s in names]


def lattice(names):
    return build_lattice(tags(names))


def shorts(classes):
    return [t.short() for t in classes]


def test_total_isotropy_rules():
    assert is_totally_isotropic(canonical_rep(FULL), (0.0, 0.0, 0.0))
    assert is_totally_isotropic(canonical_rep(FULL), 0.0)
    assert not is_totally_isotropic(canonical_rep(FULL), (0.0, 0.0, 2.0))
    assert not is_totally_isotropic(canonical_rep(FULL), 1.5)
    assert is_totally_isotropic(canonical_rep(CIRCLE), 3.7)
    assert is_totally_isotropic(canonical_rep(CIRCLE), 0.0)
    G = canonical_rep(TETRA)
    assert is_totally_isotropic(G, 0.0)
    assert not is_totally_isotropic(G, 1.0)


@pytest.mark.parametrize(
    "names", [["SO2", "SO3"], ["C2", "O2"], ["1", "C3", "D3"], ["SO2"]]
)
def test_zero_level_is_base(names):
    b = lattice(names)
    z = zero_level_lattice(canonical_rep(FULL), b)
    assert z == b


def test_zero_level_other_ambients():
    b = lattice(["C2", "C4", "SO2"])
    assert zero_level_lattice(canonical_rep(CIRCLE), b) == b
    G = canonical_rep(TETRA)
    bt = lattice(["1", "C2", "C3", "T"])
    assert zero_level_lattice(G, bt) == bt


def test_zero_level_checks_realizability():
    with pytest.raises(NotRealizableInG):
        zero_level_lattice(canonical_rep(CIRCLE), lattice(["1", "D4"]))


def test_mu_zero_scalar_and_vector():
    b = lattice(["SO2", "SO3"])
    for mu in (0.0, 0, (0.0, 0.0, 0.0), [0, 0, 0]):
        m = mu_lattice(canonical_rep(FULL), b, mu)
        assert isinstance(m, IsotropyLattice)
        assert m.classes == b.classes
        assert m.unique_min


def test_circle_nonzero_mu_drops_the_circle():
    b = lattice(["C2", "C4", "SO2"])
    m = mu_lattice(canonical_rep(CIRCLE), b, 1.0)
    assert shorts(m.classes) == ["C2", "C4"]
    assert m.unique_min


def test_circle_nonzero_mu_keeps_trivial():
    b = lattice(["1", "C2", "SO2"])
    m = mu_lattice(canonical_rep(CIRCLE), b, -2.5)
    assert shorts(m.classes) == ["1", "C2"]


def test_circle_mu_value_does_not_matter():
    b = lattice(["1", "C3", "SO2"])
    a = mu_lattice(canonical_rep(CIRCLE), b, 0.25)
    c = mu_lattice(canonical_rep(CIRCLE), b, 40.0)
    assert a.classes == c.classes


def test_circle_nonzero_mu_with_no_survivors():
    b = lattice(["SO2"])
    with pytest.raises(NotTotallyIsotropic):
        mu_lattice(canonical_rep(CIRCLE), b, 1.0)


def test_so3_nonzero_mu_rejected():
    b = lattice(["SO2", "SO3"])
    with pytest.raises(NotTotallyIsotropic):
        mu_lattice(canonical_rep(FULL), b, (0.0, 0.0, 2.0))
    with pytest.raises(NotTotallyIsotropic):
        mu_lattice(canonical_rep(FULL), b, 2.0)


def test_finite_nonzero_mu_rejected():
    G = canonical_rep(TETRA)
    b = lattice(["1", "C2", "C3", "T"])
    with pytest.raises(NotTotallyIsotropic):
        mu_lattice(G, b, 1.0)
    assert mu_lattice(G, b, 0.0).classes == b.classes


def test_bad_mu_shape():
    b = lattice(["SO2", "SO3"])
    with pytest.raises(ValueError):
        mu_lattice(canonical_rep(FULL), b, (1.0, 2.0))


def test_mu_closure_is_up_set():
    b = lattice(["C2", "C4", "SO2"])
    m = mu_lattice(canonical_rep(CIRCLE), b, 1.0)
    assert shorts(up_set(m, parse_tag("C2"))) == ["C2", "C4"]
    assert shorts(up_set(m, parse_tag("C4"))) == ["C4"]


def test_mu_closure_unknown_class():
    b = lattice(["C2", "C4", "SO2"])
    m = mu_lattice(canonical_rep(CIRCLE), b, 1.0)
    with pytest.raises(ClassNotInLattice):
        up_set(m, parse_tag("SO2"))


@pytest.mark.parametrize(
    "base,expected",
    [
        (["SO2", "SO3"], ["1", "SO2", "SO3"]),
        (["SO2"], ["1", "SO2"]),
        (["C2", "O2"], ["1", "C2", "O2"]),
        (["D3", "O2"], ["1", "C2", "C3", "D3", "O2"]),
        (["SO2", "O2"], ["1", "C2", "SO2", "O2"]),
    ],
)
def test_relative_equilibria_traces(base, expected):
    lat = relative_equilibria_lattice(canonical_rep(FULL), lattice(base))
    assert shorts(lat.classes) == expected


@pytest.mark.parametrize("names", [["SO2", "SO3"], ["C3", "D3"], ["C2", "O2", "SO3"]])
def test_relative_equilibria_inside_lift(names):
    b = lattice(names)
    re_lat = relative_equilibria_lattice(canonical_rep(FULL), b)
    lifted = lifted_lattice(canonical_rep(FULL), b).lifted
    assert set(re_lat.classes) <= set(lifted.classes)
    assert set(b.classes) <= set(re_lat.classes)


def test_relative_equilibria_other_ambients():
    b = lattice(["C2", "C4", "SO2"])
    assert relative_equilibria_lattice(canonical_rep(CIRCLE), b) == b
    G = canonical_rep(TETRA)
    bt = lattice(["1", "C2", "C3", "T"])
    assert relative_equilibria_lattice(G, bt) == bt


def test_relative_equilibria_checks_realizability():
    with pytest.raises(NotRealizableInG):
        relative_equilibria_lattice(canonical_rep(CIRCLE), lattice(["1", "T"]))
