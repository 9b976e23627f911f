import math

import pytest

from grassgeo import spaces, topology
from grassgeo.errors import ConsistencyError, EnumerationSizeError, PreconditionError
from grassgeo.kernels import EnergySpec
from grassgeo.topology import (
    CharacteristicReport,
    characteristic_report,
    euler_characteristic,
    fundamental_rep_dim,
    orthogonal_coherent_count,
    schubert_cells,
    weyl_group_ratio,
)
from grassgeo.spaces import GrassmannSpace


class TestEulerCharacteristic:
    def test_small_values(self):
        assert euler_characteristic(1, 1) == 2
        assert euler_characteristic(1, 2) == 3
        assert euler_characteristic(2, 2) == 6
        assert euler_characteristic(2, 3) == 10
        assert euler_characteristic(3, 3) == 20

    def test_duality(self):
        for n in range(1, 6):
            for m in range(1, 6):
                assert euler_characteristic(n, m) == euler_characteristic(m, n)

    def test_matches_weyl_ratio(self):
        for n in range(1, 7):
            for m in range(1, 7):
                assert euler_characteristic(n, m) == weyl_group_ratio(n, m)

    def test_rejects_degenerate(self):
        with pytest.raises(PreconditionError):
            euler_characteristic(0, 3)


class TestFundamentalRepDim:
    def test_small_values(self):
        # C^3, Lambda^2 C^4, Lambda^2 C^5 and Lambda^3 C^6
        assert [fundamental_rep_dim(n, m) for n, m in ((1, 2), (2, 2), (2, 3), (3, 3))] == [
            3, 6, 10, 20,
        ]

    def test_matches_binomial(self):
        for n in range(1, 9):
            for m in range(1, 9):
                assert fundamental_rep_dim(n, m) == math.comb(n + m, n)

    def test_wrong_route_fails_the_report(self, monkeypatch):
        monkeypatch.setattr(topology, "fundamental_rep_dim", lambda n, m: math.comb(n + m, n) + 1)
        with pytest.raises(ConsistencyError, match="disagree"):
            characteristic_report(2, 2, EnergySpec([4.0, 3.0, 2.0, 1.0]))


class TestSchubertCells:
    def test_count_matches_euler(self):
        for n in range(1, 5):
            for m in range(1, 5):
                assert len(schubert_cells(n, m)) == euler_characteristic(n, m)

    def test_g2c4_dimensions(self):
        dims = sorted(c.cell_dim for c in schubert_cells(2, 2))
        assert dims == [0, 1, 2, 2, 3, 4]

    def test_poincare_polynomial_palindrome(self):
        for n, m in ((2, 3), (3, 3), (2, 4)):
            dims = [c.cell_dim for c in schubert_cells(n, m)]
            hist = [dims.count(k) for k in range(n * m + 1)]
            assert hist == hist[::-1]

    def test_size_guard(self):
        with pytest.raises(EnumerationSizeError):
            schubert_cells(12, 12)

    def test_shared_bound(self, monkeypatch):
        monkeypatch.setattr(spaces, "MAX_CELLS", 6)
        assert len(schubert_cells(2, 2)) == 6
        with pytest.raises(EnumerationSizeError):
            schubert_cells(2, 3)


class TestOrthogonalCoherent:
    def test_projective_line(self):
        assert orthogonal_coherent_count(GrassmannSpace(1, 1, 1)) == 2

    def test_g2c4(self):
        assert orthogonal_coherent_count(GrassmannSpace(2, 2, 1)) == 6

    def test_g2c5(self):
        assert orthogonal_coherent_count(GrassmannSpace(2, 3, 1)) == 10

    def test_repeated_plane_fails(self, monkeypatch):
        # subset (2, 3) is given the plane of (0, 1): the Plucker Gram check
        # must see the unit overlap between planes 0 and 5
        real = topology.coordinate_plane_frame

        def fake(space, subset):
            return real(space, (0, 1) if tuple(subset) == (2, 3) else subset)

        monkeypatch.setattr(topology, "coordinate_plane_frame", fake)
        with pytest.raises(ConsistencyError, match="planes 0 and 5"):
            orthogonal_coherent_count(GrassmannSpace(2, 2, 1))


class TestCharacteristicReport:
    def test_g2c4_all_six(self):
        rep = characteristic_report(2, 2, EnergySpec([4.0, 3.0, 2.0, 1.0]))
        assert rep.values() == (6,) * 7

    def test_projective_plane(self):
        rep = characteristic_report(1, 2, EnergySpec([3.0, 2.0, 1.0]))
        assert rep.values() == (3,) * 7

    def test_g2c5(self):
        rep = characteristic_report(2, 3, EnergySpec([5.0, 4.0, 3.0, 2.0, 1.0]))
        assert rep.values() == (10,) * 7

    def test_orthogonal_bound_checked_first(self, monkeypatch):
        # C(4, 2) = 6 planes against a bound of 5: refused before any
        # enumeration, here the Schubert cells
        monkeypatch.setattr(topology, "MAX_ORTHOGONAL_PLANES", 5)

        def no_cells(n, m):
            raise AssertionError("cells were enumerated")

        monkeypatch.setattr(topology, "schubert_cells", no_cells)
        with pytest.raises(EnumerationSizeError):
            orthogonal_coherent_count(GrassmannSpace(2, 2, 1))
        with pytest.raises(EnumerationSizeError):
            characteristic_report(2, 2, EnergySpec([4.0, 3.0, 2.0, 1.0]))
        monkeypatch.setattr(topology, "MAX_ORTHOGONAL_PLANES", 6)
        assert orthogonal_coherent_count(GrassmannSpace(2, 2, 1)) == 6

    def test_poincare_check_fails_on_a_missing_cell(self, monkeypatch):
        cells = topology.schubert_cells
        monkeypatch.setattr(topology, "schubert_cells", lambda n, m: cells(n, m)[1:])
        with pytest.raises(ConsistencyError, match="Poincare check"):
            characteristic_report(2, 2, EnergySpec([4.0, 3.0, 2.0, 1.0]))

    def test_report_rejects_disagreement(self):
        with pytest.raises(ConsistencyError):
            CharacteristicReport(6, 6, 6, 6, 6, 5, 6)
