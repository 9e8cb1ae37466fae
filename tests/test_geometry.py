import numpy as np
import pytest

from holoflow import BadParameter, Domain, parse_domain


def test_unit_disc_membership():
    d = Domain.unit_disc()
    assert d.contains(0j)
    assert not d.contains(1.0 + 0j)
    assert Domain.disc(0j, 2.0).contains(1.5 + 0j)


def test_unit_disc_canonical():
    assert Domain.unit_disc() == Domain.disc(0j, 1.0)


def test_boundary_distance_closed_forms():
    d = Domain.unit_disc()
    assert d.signed_distance(0j) == 1.0
    assert d.signed_distance(0.5 + 0j) == 0.5
    assert Domain.disc(0j, 2.0).signed_distance(1.5 + 0j) == 0.5
    assert Domain.half_plane("right").signed_distance(0.3 + 5j) == 0.3
    assert Domain.half_plane("upper").signed_distance(5 + 0.25j) == 0.25


def test_bad_radius_rejected():
    with pytest.raises(BadParameter):
        Domain.disc(0j, 0.0)


@pytest.mark.parametrize("domain", [
    Domain.unit_disc(),
    Domain.disc(1 + 1j, 0.5),
    Domain.half_plane("right"),
    Domain.half_plane("upper"),
])
@pytest.mark.parametrize("density", [1, 2])
def test_grid_points_are_interior(domain, density):
    grid = domain.sample_grid(density)
    assert grid
    for z in grid:
        assert domain.contains(z)
        assert domain.signed_distance(z) > 0


def test_changing_a_returned_grid_leaves_the_next_one_unchanged():
    for d in (Domain.unit_disc(), Domain.half_plane("upper")):
        grid = d.sample_grid(1)
        want = list(grid)
        grid[0] = 99j
        grid.append(0j)
        assert d.sample_grid(1) == want
        assert d.sample_grid(1) is not d.sample_grid(1)


def test_grid_density_strictly_monotone():
    d = Domain.unit_disc()
    assert len(d.sample_grid(2)) > len(d.sample_grid(1))
    h = Domain.half_plane("upper")
    assert len(h.sample_grid(2)) > len(h.sample_grid(1))


def test_disc_grid_affine_equivariance():
    unit = Domain.unit_disc().sample_grid(2)
    scaled = Domain.disc(0j, 2.0).sample_grid(2)
    assert scaled == [2.0 * z for z in unit]
    shifted = Domain.disc(1 + 1j, 1.0).sample_grid(2)
    assert shifted == [(1 + 1j) + z for z in unit]


def test_disc_grid_max_boundary_distance_exact():
    # max distance over the grid = radius - smallest grid radius, exactly
    d = Domain.disc(0j, 2.0)
    grid = d.sample_grid(1)
    smallest = min(abs(z) for z in grid)
    assert max(d.signed_distance(z) for z in grid) == 2.0 - smallest


def test_grid_radii_reach_documented_maximum():
    grid = Domain.unit_disc().sample_grid(1)
    assert max(abs(z) for z in grid) == pytest.approx(1 - 2.0 ** -4, abs=0)


def test_containment_is_open():
    rng = np.random.default_rng(7)
    d = Domain.disc(0.3 - 0.2j, 1.7)
    for z in d.sample_grid(1):
        dist = d.signed_distance(z)
        for _ in range(5):
            eps = dist * 0.999 * rng.uniform(0, 1) * np.exp(
                2j * np.pi * rng.uniform())
            assert d.contains(z + eps)


def test_parse_and_format_round_trip():
    for text, kind in [("unitdisc", "disc"),
                       ("halfplane:right", "halfplane:right"),
                       ("halfplane:upper", "halfplane:upper")]:
        d = parse_domain(text)
        assert d.kind == kind
        assert parse_domain(d.to_text()) == d
    d = parse_domain("disc:0,0,2")
    assert d == Domain.disc(0j, 2.0)
    assert parse_domain(d.to_text()) == d
    assert parse_domain("disc:0,0,1").to_text() == "unitdisc"


def test_parse_rejects_junk():
    from holoflow import ParseError
    with pytest.raises(ParseError):
        parse_domain("annulus:1,2")
    with pytest.raises(ParseError):
        parse_domain("disc:1,2")
