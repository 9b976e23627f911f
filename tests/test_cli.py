import json
import os
import subprocess
import sys

import numpy as np
import pytest

from grassgeo import jsonio


def run_cli(args, stdin=None, env=None):
    cmd = [sys.executable, "-m", "grassgeo.cli", *args]
    return subprocess.run(
        cmd, input=stdin, capture_output=True, text=True, env=env
    )


def write_doc(path, M):
    path.write_text(json.dumps(jsonio.matrix_to_doc(np.asarray(M, dtype=complex))))
    return str(path)


class TestJsonIo:
    def test_round_trip(self):
        M = np.array([[0.3 + 0.1j, -0.2j], [1.0, 0.0]])
        back = jsonio.doc_to_matrix(jsonio.matrix_to_doc(M))
        assert np.array_equal(back, M)

    def test_doc_shape_errors(self):
        from grassgeo.errors import PreconditionError

        with pytest.raises(PreconditionError):
            jsonio.doc_to_matrix([1, 2, 3])
        with pytest.raises(PreconditionError):
            jsonio.doc_to_matrix({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    def test_dumps_sorted_and_exact(self):
        s = jsonio.dumps({"b": 1, "a": 0.1})
        assert s == '{"a":0.10000000000000001,"b":1}'

    def test_dumps_complex_as_pair(self):
        assert jsonio.dumps(1 + 2j) == "[1,2]"

    def test_dumps_rejects_nan(self):
        from grassgeo.errors import PreconditionError

        with pytest.raises(PreconditionError):
            jsonio.dumps(float("nan"))


class TestExpCommand:
    SPACE = ["--space", "1", "1", "compact"]

    def test_scalar_tan(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[0.7]])
        out = run_cli(["exp", *self.SPACE, "--input", doc])
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        z = payload["Z"]["data"][0]
        assert abs(z[0] - np.tan(0.7)) < 1e-14
        assert abs(payload["arc_length"] - 0.7) < 1e-15

    def test_stdin_default(self):
        doc = json.dumps(jsonio.matrix_to_doc(np.array([[0.3]], dtype=complex)))
        out = run_cli(["exp", *self.SPACE], stdin=doc)
        assert out.returncode == 0

    def test_verify_against_ode(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[0.2, 0.5], [0.1, -0.3]])
        out = run_cli(
            ["exp", "--space", "2", "2", "compact", "--input", doc, "--verify"]
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["verify"]["max_abs_diff"] < 1e-8

    def test_pole_gives_error_object(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[np.pi / 2]])
        out = run_cli(["exp", *self.SPACE, "--input", doc])
        assert out.returncode == 1
        err = json.loads(out.stdout)["error"]
        assert err["type"] == "ConjugateToChartError"

    def test_malformed_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"rows": 1, "cols": 1, "data": [[0.1,')
        out = run_cli(["exp", *self.SPACE, "--input", str(p)])
        assert out.returncode == 2
        assert "line" in out.stderr and "column" in out.stderr

    def test_missing_file_exits_2(self):
        out = run_cli(["exp", *self.SPACE, "--input", "/no/such/file.json"])
        assert out.returncode == 2


class TestRoundTripCommands:
    def test_log_inverts_exp(self, tmp_path):
        z = np.tanh(1.3)
        doc = write_doc(tmp_path / "z.json", [[z]])
        out = run_cli(["log", "--space", "1", "1", "noncompact", "--input", doc])
        payload = json.loads(out.stdout)
        assert abs(payload["B"]["data"][0][0] - 1.3) < 1e-12

    def test_geodesic_check(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[0.4, -0.1], [0.2, 0.6]])
        out = run_cli(
            ["geodesic-check", "--space", "2", "2", "compact", "--input", doc,
             "--t", "1.0", "--steps", "2000"]
        )
        assert json.loads(out.stdout)["max_abs_diff"] < 1e-7

    def test_geodesic_check_through_tan_pole(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[2.0]])
        out = run_cli(
            ["geodesic-check", "--space", "1", "1", "compact", "--input", doc,
             "--t", "1.0", "--steps", "4000"]
        )
        assert out.returncode == 1
        assert json.loads(out.stdout)["error"]["type"] == "LeftChartError"
        assert out.stderr == ""

    def test_distance_scalar(self, tmp_path):
        z1 = write_doc(tmp_path / "z1.json", [[0.0]])
        z2 = write_doc(tmp_path / "z2.json", [[np.tan(0.9)]])
        out = run_cli(
            ["distance", "--space", "1", "1", "compact", "--z1", z1, "--z2", z2]
        )
        assert abs(json.loads(out.stdout)["distance"] - 0.9) < 1e-12

    def test_overlap_with_oracle(self, tmp_path):
        z1 = write_doc(tmp_path / "z1.json", [[0.2, 0.1], [0.0, -0.4]])
        z2 = write_doc(tmp_path / "z2.json", [[0.5, -0.2], [0.3, 0.1]])
        out = run_cli(
            ["overlap", "--space", "2", "2", "compact",
             "--z1", z1, "--z2", z2, "--verify"]
        )
        payload = json.loads(out.stdout)
        assert payload["verify"]["modulus_diff"] < 1e-12

    def test_diastasis_cayley_identity(self, tmp_path):
        z1 = write_doc(tmp_path / "z1.json", [[0.3]])
        z2 = write_doc(tmp_path / "z2.json", [[1.1]])
        args = ["--space", "1", "1", "compact", "--z1", z1, "--z2", z2]
        D = json.loads(run_cli(["diastasis", *args]).stdout)["diastasis"]
        dc = json.loads(run_cli(["cayley", *args]).stdout)["cayley_distance"]
        assert abs(D + 2 * np.log(np.cos(dc))) < 1e-12

    def test_cayley_noncompact_is_error(self, tmp_path):
        z = write_doc(tmp_path / "z.json", [[0.0]])
        out = run_cli(
            ["cayley", "--space", "1", "1", "noncompact", "--z1", z, "--z2", z]
        )
        assert out.returncode == 1
        assert json.loads(out.stdout)["error"]["type"] == "UnsupportedSpaceError"


class TestLociCommands:
    def test_conjugate_times_projective_plane(self):
        out = run_cli(
            ["conjugate-times", "--space", "1", "2", "compact",
             "--h", "1.0", "--tmax", "3.2"]
        )
        times = json.loads(out.stdout)["times"]
        assert [(t["family"], t["multiplicity"]) for t in times] == [
            ("T2", 1), ("T3", 3),
        ]

    def test_h_autonormalized(self):
        out = run_cli(
            ["conjugate-times", "--space", "2", "2", "compact",
             "--h", "8", "6", "--tmax", "3.0"]
        )
        times = json.loads(out.stdout)["times"]
        assert abs(times[0]["t"] - np.pi / 1.6) < 1e-12

    def test_no_normalize_rejects_bad_h(self):
        out = run_cli(
            ["conjugate-times", "--space", "2", "2", "compact",
             "--h", "8", "6", "--tmax", "3.0", "--no-normalize"]
        )
        assert out.returncode == 1

    def test_conjugate_scan_csv(self):
        # a 16-point grid up to pi lands exactly on both predicted times
        out = run_cli(
            ["conjugate-scan", "--space", "1", "1", "compact",
             "--h", "1.0", "--tmax", repr(np.pi), "--points", "16"]
        )
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "t,min_singular_normalized,predicted_flag"
        assert len(lines) == 17
        rows = [line.split(",") for line in lines[1:]]
        flagged = [float(r[1]) for r in rows if r[2] == "1"]
        unflagged = [float(r[1]) for r in rows if r[2] == "0"]
        assert len(flagged) == 2
        assert max(flagged) < 1e-6
        assert min(unflagged) > 1e-2

    def test_cut_test_seeded(self):
        out = run_cli(
            ["cut-test", "--space", "2", "2", "compact", "--seed", "7"]
        )
        payload = json.loads(out.stdout)
        assert payload["branch"] in ("chart", "polar-divisor", "near-divisor")

    def test_schubert_membership(self, tmp_path):
        F = np.zeros((4, 2), dtype=complex)
        F[2, 0] = F[0, 1] = 1.0
        doc = write_doc(tmp_path / "f.json", F)
        out = run_cli(
            ["schubert", "--space", "2", "2", "compact", "--frame", doc,
             "--omega", "1", "2", "--flag", "dual"]
        )
        payload = json.loads(out.stdout)
        assert payload["in_variety"] is True
        assert payload["sigma"] == [2, 4]

    def test_strata_output(self, tmp_path):
        F = np.zeros((4, 2), dtype=complex)
        F[0, 0] = F[2, 1] = 1.0
        doc = write_doc(tmp_path / "f.json", F)
        out = run_cli(["strata", "--space", "2", "2", "compact", "--frame", doc])
        payload = json.loads(out.stdout)
        assert payload["stratum_W"] is True
        assert abs(payload["angles_with_origin"][1] - np.pi / 2) < 1e-12

    def test_isoclinic_seeded_lines(self):
        out = run_cli(
            ["isoclinic", "--space", "1", "2", "compact",
             "--seed1", "3", "--seed2", "4"]
        )
        assert json.loads(out.stdout)["isoclinic"] is True


class TestAlgebraCommands:
    def test_plucker_origin(self, tmp_path):
        F = np.zeros((4, 2), dtype=complex)
        F[0, 0] = F[1, 1] = 1.0
        doc = write_doc(tmp_path / "f.json", F)
        out = run_cli(["plucker", "--space", "2", "2", "compact", "--frame", doc])
        payload = json.loads(out.stdout)
        assert payload["subsets"][0] == [0, 1]
        assert payload["components"][0] == [1.0, 0.0]

    def test_energy_coordinate_plane(self, tmp_path):
        F = np.zeros((4, 2), dtype=complex)
        F[0, 0] = F[3, 1] = 1.0
        doc = write_doc(tmp_path / "f.json", F)
        out = run_cli(
            ["energy", "--space", "2", "2", "compact", "--frame", doc,
             "--eps", "4", "3", "2", "1"]
        )
        assert json.loads(out.stdout)["energy"] == 5.0

    def test_critical_points_default_eps(self):
        out = run_cli(["critical-points", "--space", "2", "2", "compact"])
        payload = json.loads(out.stdout)
        assert payload["count"] == 6
        assert max(p["value"] for p in payload["points"]) == 7.0

    def test_degenerate_eps_is_error(self):
        out = run_cli(
            ["critical-points", "--space", "2", "2", "compact",
             "--eps", "1", "1", "2", "3"]
        )
        assert out.returncode == 1
        assert json.loads(out.stdout)["error"]["type"] == "DegenerateSpectrumError"

    def test_char_numbers(self):
        out = run_cli(["char-numbers", "--space", "2", "3", "compact"])
        payload = json.loads(out.stdout)
        assert payload["all_equal"] is True
        assert payload["euler"] == 10


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[0.2, 0.5], [0.1, -0.3]])
        args = ["exp", "--space", "2", "2", "compact", "--input", doc, "--verify"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_seeded_frames_reproducible(self):
        args = ["plucker", "--space", "2", "2", "compact", "--seed", "11"]
        assert run_cli(args).stdout == run_cli(args).stdout

    def test_tol_env_override(self, tmp_path):
        F = np.zeros((4, 2), dtype=complex)
        F[2, 0] = F[3, 1] = 1.0
        doc = write_doc(tmp_path / "f.json", F)
        env = dict(os.environ, GRASSGEO_TOL="bogus")
        out = run_cli(
            ["cut-test", "--space", "2", "2", "compact", "--frame", doc], env=env
        )
        assert out.returncode == 1
        assert json.loads(out.stdout)["error"]["type"] == "PreconditionError"
        assert out.stderr == ""
        env["GRASSGEO_TOL"] = "1e-6"
        out = run_cli(
            ["cut-test", "--space", "2", "2", "compact", "--frame", doc], env=env
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["on_cut_locus"] is True


POINT_DOC = '{"rows": 1, "cols": 1, "data": [[0.7, 0.0]]}'
SCAN = ["conjugate-scan", "--space", "1", "1", "compact", "--h", "1", "--tmax", "3"]
SCHUBERT = ["schubert", "--space", "2", "2", "compact", "--seed", "7"]
BAD_TOL = {"GRASSGEO_TOL": "abc"}
CUT = ["cut-test", "--space", "2", "2", "compact", "--seed", "7"]
ROW_DOC = '{"rows": 1, "cols": 2, "data": [[0.7, 0.0], [0.0, 0.0]]}'


class TestInputHoles:
    """Every bad input ends in a usage error (exit 2) or a JSON error object
    (exit 1), never in a traceback or a silently misread argument."""

    @pytest.mark.parametrize(
        "args, env, stdin, code, error",
        [
            pytest.param(
                ["exp", "--space", "1", "1", "compcat"], {}, POINT_DOC, 2, None,
                id="kind-typo",
            ),
            pytest.param(
                ["exp", "--space", "x", "1", "compact"], {}, POINT_DOC, 2, None,
                id="n-not-int",
            ),
            pytest.param(
                ["exp", "--space", "1", "1", "compact"], {},
                '{"rows": 1, "cols": 1, "data": [[0.7]]}', 1, "PreconditionError",
                id="entry-not-pair",
            ),
            pytest.param(
                ["exp", "--space", "1", "1", "compact"], {},
                '{"rows": -1, "cols": -1, "data": [[0.7, 0.0]]}', 1,
                "PreconditionError",
                id="negative-shape",
            ),
            pytest.param(
                ["exp", "--space", "1", "1", "compact", "--tol", "1e-6"], {},
                POINT_DOC, 2, None,
                id="tol-unused",
            ),
            pytest.param([*SCAN, "--points", "0"], {}, None, 2, None, id="points-0"),
            pytest.param(
                [*SCAN, "--points", "-3"], {}, None, 2, None, id="points-negative"
            ),
            pytest.param(
                SCHUBERT, BAD_TOL, None, 1, "PreconditionError", id="env-tol-bad"
            ),
            pytest.param(
                [*SCHUBERT, "--tol", "1e-6"], BAD_TOL, None, 0, None,
                id="tol-over-env",
            ),
            pytest.param(
                ["plucker", "--space", "2", "2", "compact", "--seed", "7"], BAD_TOL,
                None, 0, None,
                id="env-tol-unread",
            ),
            pytest.param(
                [*SCHUBERT, "--tol", "nan"], {}, None, 1, "PreconditionError",
                id="tol-nan",
            ),
            pytest.param(
                SCHUBERT, {"GRASSGEO_TOL": "nan"}, None, 1, "PreconditionError",
                id="env-tol-nan",
            ),
            pytest.param(
                [*CUT, "--tol", "inf"], {}, None, 1, "PreconditionError",
                id="cut-tol-inf",
            ),
            pytest.param(
                CUT, {"GRASSGEO_TOL": "nan"}, None, 1, "PreconditionError",
                id="cut-env-tol-nan",
            ),
            # inf * 0 would warn on stderr before the error object
            pytest.param(
                ["exp", "--space", "1", "2", "compact", "--t", "inf"], {}, ROW_DOC,
                1, "PreconditionError",
                id="exp-t-inf",
            ),
            pytest.param(
                ["geodesic-check", "--space", "1", "2", "compact", "--t", "inf"], {},
                ROW_DOC, 1, "PreconditionError",
                id="geodesic-check-t-inf",
            ),
            pytest.param(
                ["conjugate-times", "--space", "1", "1", "compact", "--h", "1",
                 "--tmax", "inf"], {}, None, 1, "PreconditionError",
                id="tmax-inf",
            ),
            pytest.param(
                [*SCAN[:-1], "1e9", "--points", "1"], {}, None, 1,
                "EnumerationSizeError",
                id="tmax-huge",
            ),
        ],
    )
    def test_outcome(self, args, env, stdin, code, error):
        out = run_cli(args, stdin=stdin, env=dict(os.environ, **env))
        assert out.returncode == code
        assert "Traceback" not in out.stderr
        if code == 1:
            assert json.loads(out.stdout)["error"]["type"] == error
            assert out.stderr == ""
        elif code == 2:
            assert "usage" in out.stderr
