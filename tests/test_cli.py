import hashlib
import itertools
import json

import numpy as np
import pytest

import cli_corpus
from grassgeo import geometry, jsonio, loci
from conftest import CLI, run_main, run_process, write_doc


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


class TestEntryPoint:
    def test_exit_codes(self):
        # python -m grassgeo.cli: 0 and 1 print JSON on stdout and nothing on
        # stderr; a usage error exits 2 with a message on stderr
        space = ["exp", "--space", "1", "1", "compact"]
        ok = run_process([*CLI, *space], stdin='{"rows": 1, "cols": 1, "data": [[0.7, 0.0]]}')
        assert (ok.returncode, ok.stderr) == (0, b"")
        assert abs(json.loads(ok.stdout)["arc_length"] - 0.7) < 1e-15
        pole = json.dumps(jsonio.matrix_to_doc(np.array([[np.pi / 2]], dtype=complex)))
        failed = run_process([*CLI, *space], stdin=pole)
        assert (failed.returncode, failed.stderr) == (1, b"")
        assert json.loads(failed.stdout)["error"]["type"] == "ConjugateToChartError"
        usage = run_process([*CLI, "exp", "--space", "1", "1", "compcat"])
        assert usage.returncode == 2
        assert b"usage" in usage.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["schubert", "--space", "1", "100000", "compact", "--seed", "0"],
            ["conjugate-scan", "--space", "1", "3000", "compact", "--h", "1", "--tmax", "1",
             "--points", "1"],
            ["cut-test", "--space", "1", "1000000000000", "compact", "--seed", "0"],
            ["critical-points", "--space", "1", "1000000000000", "compact"],
            ["char-numbers", "--space", "1", "1000000000000", "compact"],
            ["conjugate-scan", "--space", "1", "1000000000000", "compact", "--h", "1",
             "--tmax", "1", "--points", "1"],
        ],
        ids=["schubert-flag-basis", "conjugate-scan-dexp-stack", "cut-test-random-frame",
             "critical-points-default-eps", "char-numbers-default-eps",
             "conjugate-scan-cartan-tangent"],
    )
    def test_arrays_that_only_the_space_sizes_are_refused(self, argv):
        # they would take 149 GiB, 1.57 TiB, 7.3 TiB, 7.3 TiB, 7.3 TiB and 14.6 TiB; the child
        # has 2 GiB of address space, so an allocation that is not refused fails at once with
        # a traceback
        limited = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
                   "from grassgeo.cli import main; sys.exit(main(sys.argv[1:]))")
        out = run_process(["-c", limited, *argv])
        assert (out.returncode, out.stderr) == (1, b"")
        assert json.loads(out.stdout)["error"]["type"] == "EnumerationSizeError"


    def test_unserializable_result_is_a_json_error(self, monkeypatch, tmp_path):
        # main serializes inside its try: a nan result prints only the error
        # object, with exit 1 and nothing on stderr, not a traceback
        monkeypatch.setattr(geometry, "distance", lambda space, p1, p2: float("nan"))
        z = write_doc(tmp_path / "z.json", [[0.5]])
        argv = ["distance", "--space", "1", "1", "compact", "--z1", z, "--z2", z]
        error = '{"message":"cannot serialize non-finite float","type":"PreconditionError"}'
        assert run_main(argv) == (1, '{"error":' + error + "}\n", "")


class TestExpCommand:
    SPACE = ["--space", "1", "1", "compact"]

    def test_scalar_tan(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[0.7]])
        code, out, _ = run_main(["exp", *self.SPACE, "--input", doc])
        assert code == 0
        payload = json.loads(out)
        z = payload["Z"]["data"][0]
        assert abs(z[0] - np.tan(0.7)) < 1e-14
        assert abs(payload["arc_length"] - 0.7) < 1e-15

    def test_stdin_default(self, monkeypatch):
        doc = json.dumps(jsonio.matrix_to_doc(np.array([[0.3]], dtype=complex)))
        code, _, _ = run_main(["exp", *self.SPACE], monkeypatch, stdin=doc)
        assert code == 0

    def test_verify_against_ode(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[0.2, 0.5], [0.1, -0.3]])
        code, out, _ = run_main(
            ["exp", "--space", "2", "2", "compact", "--input", doc, "--verify"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verify"]["max_abs_diff"] < 1e-8

    def test_pole_gives_error_object(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[np.pi / 2]])
        code, out, _ = run_main(["exp", *self.SPACE, "--input", doc])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "ConjugateToChartError"

    POLE_ERROR = (
        1,
        '{"error":{"message":"tan singularity: a singular value of B equals pi/2 mod pi; '
        'the point exists but leaves the chart -- use exp0_frame",'
        '"type":"ConjugateToChartError"}}\n',
    )

    @pytest.mark.parametrize(
        "k, offset, expected",
        [
            (0, 0.0, POLE_ERROR),
            (0, 1e-6, (0, '{"Z":{"cols":1,"data":[[-1000000.0001431657,0]],"rows":1},'
                          '"arc_length":1.5707973267948965}\n')),
            (0, 0.3, (0, '{"Z":{"cols":1,"data":[[-3.2327281437658275,0]],"rows":1},'
                         '"arc_length":1.8707963267948966}\n')),
            (10_000, 0.0, POLE_ERROR),
            (10_000, 1e-6, (0, '{"Z":{"cols":1,"data":[[-999999.07251246949,0]],"rows":1},'
                               '"arc_length":31417.497333224728}\n')),
            (10_000, 0.3, (0, '{"Z":{"cols":1,"data":[[-3.2327281437674151,0]],"rows":1},'
                              '"arc_length":31417.797332224727}\n')),
        ],
    )
    def test_pole_offset_bytes(self, tmp_path, k, offset, expected):
        # B = k pi + pi/2 + offset: the pole itself is refused, and its
        # neighbours at 1e-6 and 0.3 print tan of the float B
        doc = write_doc(tmp_path / "b.json", [[k * np.pi + np.pi / 2 + offset]])
        assert run_main(["exp", *self.SPACE, "--input", doc]) == (*expected, "")

    def test_malformed_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"rows": 1, "cols": 1, "data": [[0.1,')
        code, _, err = run_main(["exp", *self.SPACE, "--input", str(p)])
        assert code == 2
        assert "line" in err and "column" in err

    def test_missing_file_exits_2(self):
        code, _, _ = run_main(["exp", *self.SPACE, "--input", "/no/such/file.json"])
        assert code == 2


class TestRoundTripCommands:
    def test_log_inverts_exp(self, tmp_path):
        z = np.tanh(1.3)
        doc = write_doc(tmp_path / "z.json", [[z]])
        _, out, _ = run_main(["log", "--space", "1", "1", "noncompact", "--input", doc])
        payload = json.loads(out)
        assert abs(payload["B"]["data"][0][0] - 1.3) < 1e-12

    def test_geodesic_check(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[0.4, -0.1], [0.2, 0.6]])
        _, out, _ = run_main(
            ["geodesic-check", "--space", "2", "2", "compact", "--input", doc,
             "--t", "1.0", "--steps", "2000"]
        )
        assert json.loads(out)["max_abs_diff"] < 1e-7

    def test_geodesic_check_dual_spread_singular_values(self, tmp_path):
        # sigma(B) = (15, 0.01): the k = 2 oracle runs one scalar equation
        # per singular value of B, so their spread costs it no accuracy
        U = np.array([[0.6, 0.8j], [0.8j, 0.6]])
        W = np.array([[0.6, 0.0, 0.8j], [0.0, 1.0, 0.0]])
        doc = write_doc(tmp_path / "b.json", U @ np.diag([15.0, 0.01]) @ W)
        code, out, _ = run_main(
            ["geodesic-check", "--space", "2", "3", "noncompact", "--input", doc]
        )
        assert code == 0
        assert json.loads(out)["max_abs_diff"] < 1e-13

    def test_geodesic_check_k3_dual_spread_singular_values(self, tmp_path):
        # sigma(B) = (12, 0.5, 0.1): the k = 3 oracle runs one scalar equation
        # per root of C = B B^dagger, so their spread costs it no accuracy
        U = np.array([[0.6, 0.8j, 0.0], [0.8j, 0.6, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
            [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, -0.8, 0.6]]
        )
        W = np.array([[0.6, 0.0, 0.8j, 0.0], [0.0, 0.8, 0.0, 0.6j], [0.8j, 0.0, 0.6, 0.0]])
        doc = write_doc(tmp_path / "b.json", U @ np.diag([12.0, 0.5, 0.1]) @ W)
        code, out, _ = run_main(
            ["geodesic-check", "--space", "3", "4", "noncompact", "--input", doc]
        )
        assert code == 0
        assert json.loads(out)["max_abs_diff"] < 1e-13

    @pytest.mark.parametrize("kind", ["compact", "noncompact"])
    @pytest.mark.parametrize("cmd", [["geodesic-check"], ["exp", "--verify"]])
    def test_zero_time_reaches_origin(self, tmp_path, cmd, kind):
        doc = write_doc(tmp_path / "b.json", [[0.4, -0.1], [0.2, 0.6]])
        code, out, _ = run_main([*cmd, "--space", "2", "2", kind, "--input", doc, "--t", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload.get("verify", payload)["max_abs_diff"] == 0

    def test_geodesic_check_through_tan_pole(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[2.0]])
        code, out, err = run_main(
            ["geodesic-check", "--space", "1", "1", "compact", "--input", doc,
             "--t", "1.0", "--steps", "4000"]
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "LeftChartError"
        assert err == ""

    def test_distance_scalar(self, tmp_path):
        z1 = write_doc(tmp_path / "z1.json", [[0.0]])
        z2 = write_doc(tmp_path / "z2.json", [[np.tan(0.9)]])
        _, out, _ = run_main(
            ["distance", "--space", "1", "1", "compact", "--z1", z1, "--z2", z2]
        )
        assert abs(json.loads(out)["distance"] - 0.9) < 1e-12

    def test_distance_near_disk_boundary(self, tmp_path):
        # unit-disk distance arcsinh(|z2 - z1| / sqrt((1 - |z1|^2)(1 - |z2|^2)))
        a, b = 0.999999, -0.5
        z1 = write_doc(tmp_path / "z1.json", [[a]])
        z2 = write_doc(tmp_path / "z2.json", [[b]])
        code, out, _ = run_main(
            ["distance", "--space", "1", "1", "noncompact", "--z1", z1, "--z2", z2]
        )
        assert code == 0
        expected = np.arcsinh(abs(b - a) / np.sqrt((1 - a) * (1 + a) * (1 - b) * (1 + b)))
        assert json.loads(out)["distance"] == pytest.approx(expected, rel=1e-11)

    def test_overlap_with_oracle(self, tmp_path):
        z1 = write_doc(tmp_path / "z1.json", [[0.2, 0.1], [0.0, -0.4]])
        z2 = write_doc(tmp_path / "z2.json", [[0.5, -0.2], [0.3, 0.1]])
        _, out, _ = run_main(
            ["overlap", "--space", "2", "2", "compact",
             "--z1", z1, "--z2", z2, "--verify"]
        )
        payload = json.loads(out)
        assert payload["verify"]["modulus_diff"] < 1e-12

    def test_diastasis_cayley_identity(self, tmp_path):
        z1 = write_doc(tmp_path / "z1.json", [[0.3]])
        z2 = write_doc(tmp_path / "z2.json", [[1.1]])
        args = ["--space", "1", "1", "compact", "--z1", z1, "--z2", z2]
        D = json.loads(run_main(["diastasis", *args])[1])["diastasis"]
        dc = json.loads(run_main(["cayley", *args])[1])["cayley_distance"]
        assert abs(D + 2 * np.log(np.cos(dc))) < 1e-12

    def test_cayley_noncompact_is_error(self, tmp_path):
        z = write_doc(tmp_path / "z.json", [[0.0]])
        code, out, _ = run_main(
            ["cayley", "--space", "1", "1", "noncompact", "--z1", z, "--z2", z]
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "UnsupportedSpaceError"


class TestLociCommands:
    def test_conjugate_times_dual_empty(self):
        code, out, _ = run_main(
            ["conjugate-times", "--space", "2", "2", "noncompact", "--h", "1", "0",
             "--tmax", "3"]
        )
        assert code == 0
        assert json.loads(out) == {"times": []}

    @pytest.mark.parametrize(
        "args",
        [
            ["strata", "--space", "2", "2", "noncompact", "--seed", "7"],
            ["isoclinic", "--space", "2", "2", "noncompact", "--seed1", "1",
             "--seed2", "2"],
        ],
        ids=["strata", "isoclinic"],
    )
    def test_compact_only_on_dual(self, args):
        # the space is checked before any principal angle is taken
        code, out, _ = run_main(args)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "PreconditionError"
        assert "compact space" in error["message"]

    def test_conjugate_times_projective_plane(self):
        _, out, _ = run_main(
            ["conjugate-times", "--space", "1", "2", "compact",
             "--h", "1.0", "--tmax", "3.2"]
        )
        times = json.loads(out)["times"]
        assert [(t["family"], t["multiplicity"]) for t in times] == [
            ("T2", 1), ("T3", 3),
        ]

    def test_h_autonormalized(self):
        _, out, _ = run_main(
            ["conjugate-times", "--space", "2", "2", "compact",
             "--h", "8", "6", "--tmax", "3.0"]
        )
        times = json.loads(out)["times"]
        assert abs(times[0]["t"] - np.pi / 1.6) < 1e-12

    def test_no_normalize_rejects_bad_h(self):
        code, _, _ = run_main(
            ["conjugate-times", "--space", "2", "2", "compact",
             "--h", "8", "6", "--tmax", "3.0", "--no-normalize"]
        )
        assert code == 1

    def test_conjugate_scan_csv(self):
        # a 16-point grid up to pi lands exactly on both predicted times
        _, out, _ = run_main(
            ["conjugate-scan", "--space", "1", "1", "compact",
             "--h", "1.0", "--tmax", repr(np.pi), "--points", "16"]
        )
        lines = out.strip().splitlines()
        assert lines[0] == "t,min_singular_normalized,predicted_flag"
        assert len(lines) == 17
        rows = [line.split(",") for line in lines[1:]]
        flagged = [float(r[1]) for r in rows if r[2] == "1"]
        unflagged = [float(r[1]) for r in rows if r[2] == "0"]
        assert len(flagged) == 2
        assert max(flagged) < 1e-6
        assert min(unflagged) > 1e-2

    def test_cut_test_seeded(self):
        _, out, _ = run_main(
            ["cut-test", "--space", "2", "2", "compact", "--seed", "7"]
        )
        payload = json.loads(out)
        assert payload["branch"] in ("chart", "polar-divisor", "near-divisor")

    @pytest.mark.parametrize("tol", ["0.5", "1e77"])
    def test_cut_test_loose_tol(self, tol):
        # |det| = 0.097 lies below a loose tol: on the cut locus, not a
        # disagreement with the angles
        argv = ["cut-test", "--space", "2", "2", "compact", "--seed", "7", "--tol", tol]
        assert run_main(argv) == (
            0, '{"branch":"polar-divisor","det_modulus":0.097374983630540021,"on_cut_locus":true}\n', ""
        )

    def test_seeded_cut_test_bytes(self):
        # cut-test --seed s, s < 40, on every G_n(C^{n+m}) with n, m <= 4: 640
        # runs pinned by one digest of their exit codes, stdout and stderr
        digest = hashlib.sha256()
        for n, m, seed in itertools.product(range(1, 5), range(1, 5), range(40)):
            argv = ["cut-test", "--space", str(n), str(m), "compact", "--seed", str(seed)]
            digest.update(repr(run_main(argv)).encode())
        assert digest.hexdigest() == (
            "19e56980250840d5906877d5f4e622f752b08ad1cdc1e306443ba63886f018c2"
        )

    def test_cut_test_large_random_plane(self):
        # |det F_top| = 3.5e-10 is below tol, but only as the product of 32
        # cosines: the largest angle with O is 1.5355 rad, so no cosine vanishes
        argv = ["cut-test", "--space", "32", "32", "compact", "--seed", "1"]
        assert run_main(argv) == (
            0, '{"branch":"chart","det_modulus":3.5180026460143761e-10,"on_cut_locus":false}\n', ""
        )

    def test_schubert_membership(self, tmp_path):
        F = np.zeros((4, 2), dtype=complex)
        F[2, 0] = F[0, 1] = 1.0
        doc = write_doc(tmp_path / "f.json", F)
        _, out, _ = run_main(
            ["schubert", "--space", "2", "2", "compact", "--frame", doc,
             "--omega", "1", "2", "--flag", "dual"]
        )
        payload = json.loads(out)
        assert payload["in_variety"] is True
        assert payload["sigma"] == [2, 4]

    @pytest.mark.parametrize("flag", ["standard", "dual"])
    @pytest.mark.parametrize(
        "tol, via",
        [(None, None)] + [(tol, via) for tol in ("1e-6", "1e-3") for via in ("option", "env")],
    )
    def test_schubert_decides_on_the_printed_dims(self, tmp_path, monkeypatch, flag, tol, via):
        # the corpus's plane of (e1 + 1e-5 e4) / |.| and (e2 + e3) / sqrt 2 meets C^1 = span(e1)
        # at tol 1e-3 but not at 1e-9: --omega must decide at the tol of the dims it prints,
        # and the command reads its plane once, in N = 4 SVDs
        F = tmp_path / "F.json"
        F.write_text(CORPUS["schubert near e1 omega=0.1"].files["F.json"])
        argv = ["schubert", "--space", "2", "2", "compact", "--frame", str(F),
                "--omega", "0", "1", "--flag", flag]
        argv += ["--tol", tol] if via == "option" else []
        monkeypatch.delenv("GRASSGEO_TOL", raising=False)
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        env = {"GRASSGEO_TOL": tol} if via == "env" else {}
        code, out, _ = run_main(argv, monkeypatch, env=env)
        doc = json.loads(out)
        dims, sigma, jumps = doc["dims"], doc["sigma"], doc["jumps"]
        in_z = all(dims[s - 1] >= i for i, s in enumerate(sigma, start=1))
        generic = in_z and all(dims[sigma[j - 1] - 1] == j for j in jumps[1:])
        assert (code, len(calls)) == (0, 4)
        assert (doc["in_variety"], doc["generic"]) == (in_z, generic)
        if (flag, tol) == ("standard", "1e-3"):
            assert (dims, in_z, generic) == ([1, 1, 2, 2], True, True)

    def test_strata_output(self, tmp_path):
        F = np.zeros((4, 2), dtype=complex)
        F[0, 0] = F[2, 1] = 1.0
        doc = write_doc(tmp_path / "f.json", F)
        _, out, _ = run_main(["strata", "--space", "2", "2", "compact", "--frame", doc])
        payload = json.loads(out)
        assert payload["stratum_W"] is True
        assert abs(payload["angles_with_origin"][1] - np.pi / 2) < 1e-12

    def test_isoclinic_seeded_lines(self):
        _, out, _ = run_main(
            ["isoclinic", "--space", "1", "2", "compact",
             "--seed1", "3", "--seed2", "4"]
        )
        assert json.loads(out)["isoclinic"] is True


class TestAlgebraCommands:
    def test_plucker_origin(self, tmp_path):
        F = np.zeros((4, 2), dtype=complex)
        F[0, 0] = F[1, 1] = 1.0
        doc = write_doc(tmp_path / "f.json", F)
        _, out, _ = run_main(["plucker", "--space", "2", "2", "compact", "--frame", doc])
        payload = json.loads(out)
        assert payload["subsets"][0] == [0, 1]
        assert payload["components"][0] == [1.0, 0.0]

    def test_energy_coordinate_plane(self, tmp_path):
        F = np.zeros((4, 2), dtype=complex)
        F[0, 0] = F[3, 1] = 1.0
        doc = write_doc(tmp_path / "f.json", F)
        _, out, _ = run_main(
            ["energy", "--space", "2", "2", "compact", "--frame", doc,
             "--eps", "4", "3", "2", "1"]
        )
        assert json.loads(out)["energy"] == 5.0

    def test_critical_points_default_eps(self):
        _, out, _ = run_main(["critical-points", "--space", "2", "2", "compact"])
        payload = json.loads(out)
        assert payload["count"] == 6
        assert max(p["value"] for p in payload["points"]) == 7.0

    def test_degenerate_eps_is_error(self):
        code, out, _ = run_main(
            ["critical-points", "--space", "2", "2", "compact",
             "--eps", "1", "1", "2", "3"]
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "DegenerateSpectrumError"

    def test_char_numbers(self):
        _, out, _ = run_main(["char-numbers", "--space", "2", "3", "compact"])
        payload = json.loads(out)
        assert payload["all_equal"] is True
        assert payload["euler"] == 10


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        doc = write_doc(tmp_path / "b.json", [[0.2, 0.5], [0.1, -0.3]])
        args = [*CLI, "exp", "--space", "2", "2", "compact", "--input", doc, "--verify"]
        first = run_process(args)
        second = run_process(args)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")

    def test_seeded_frames_reproducible(self):
        args = ["plucker", "--space", "2", "2", "compact", "--seed", "11"]
        assert run_main(args)[1] == run_main(args)[1]

    def test_tol_env_override(self, tmp_path):
        F = np.zeros((4, 2), dtype=complex)
        F[2, 0] = F[3, 1] = 1.0
        doc = write_doc(tmp_path / "f.json", F)
        args = [*CLI, "cut-test", "--space", "2", "2", "compact", "--frame", doc]
        out = run_process(args, env={"GRASSGEO_TOL": "bogus"})
        assert out.returncode == 1
        assert json.loads(out.stdout)["error"]["type"] == "PreconditionError"
        assert out.stderr == b""
        out = run_process(args, env={"GRASSGEO_TOL": "1e-6"})
        assert out.returncode == 0
        assert json.loads(out.stdout)["on_cut_locus"] is True


# the chart-pair commands on cli_corpus.golden_pair, once pinned here as literal
# stdout and now corpus entries: a kernel change that moves their bytes fails here
GOLDEN = [
    (n, m, kind, command)
    for n, m in ((1, 3), (2, 2), (3, 1))
    for kind in ("compact", "noncompact")
    for command in ("cayley", "diastasis", "distance", "overlap")
    if (command, kind) != ("cayley", "noncompact")
]
CORPUS = {e.id: e for e in cli_corpus.entries()}


@pytest.mark.parametrize("n, m, kind, command", GOLDEN)
def test_golden_chart_pair_bytes(n, m, kind, command):
    verify = " verify" * ((command, kind) == ("overlap", "compact"))
    key = f"{command} {n}x{m} {kind} golden{verify}"
    assert cli_corpus.digests([CORPUS[key]]) == {key: cli_corpus.recorded()[key]}


POINT_DOC = '{"rows": 1, "cols": 1, "data": [[0.7, 0.0]]}'
SCAN = ["conjugate-scan", "--space", "1", "1", "compact", "--h", "1", "--tmax", "3"]
SCHUBERT = ["schubert", "--space", "2", "2", "compact", "--seed", "7"]
BAD_TOL = {"GRASSGEO_TOL": "abc"}
CUT = ["cut-test", "--space", "2", "2", "compact", "--seed", "7"]
ROW_DOC = '{"rows": 1, "cols": 2, "data": [[0.7, 0.0], [0.0, 0.0]]}'
SQUARE_DOC = '{"rows": 2, "cols": 2, "data": [[0.2, 0], [0.5, 0], [0.1, 0], [-0.3, 0]]}'
BIG_ROW_DOC = '{"rows": 1, "cols": 2, "data": [[2.0, 0.0], [0.0, 0.0]]}'
HUGE_SQUARE_DOC = '{"rows": 2, "cols": 2, "data": [[1e300, 0], [1e300, 0], [0, 0], [1e300, 0]]}'
HUGE_POINT_DOC = '{"rows": 1, "cols": 1, "data": [[1e200, 0.0]]}'


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
            # a rank tolerance at or above 1 counts no singular value, and 0.9 drops the
            # flag's own directions: dims [2, 3, 3, 4] were printed with "in_variety": true
            pytest.param(
                SCHUBERT, {"GRASSGEO_TOL": "2"}, None, 1, "PreconditionError",
                id="env-tol-2",
            ),
            pytest.param(
                ["schubert", "--space", "2", "2", "compact", "--seed", "0", "--tol", "0.9",
                 "--omega", "0", "1"], {}, None, 1, "ConsistencyError",
                id="schubert-tol-0.9",
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
            pytest.param(
                [*SCAN, "--points", "1000000000"], {}, None, 2, None,
                id="points-over-cap",
            ),
            # a binomial count past 4300 digits once ended in a traceback: Python refuses to
            # turn so long an int into text
            *[
                pytest.param(
                    [command, "--space", size, size, "compact"], {}, None, 1,
                    "EnumerationSizeError",
                    id=f"{command}-{size}",
                )
                for command, size in (
                    ("char-numbers", "20000"), ("char-numbers", "100000"),
                    ("critical-points", "100000"), ("char-numbers", "1000000"),
                )
            ],
            pytest.param(
                ["exp", "--space", "2", "2", "compact", "--verify",
                 "--steps", "1000000000"], {}, SQUARE_DOC, 1, "PreconditionError",
                id="steps-over-cap",
            ),
            pytest.param(
                ["conjugate-times", "--space", "1", "1", "compact", "--h", "nan",
                 "--tmax", "3"], {}, None, 1, "PreconditionError",
                id="h-nan",
            ),
            pytest.param(
                ["conjugate-times", "--space", "2", "2", "compact", "--h", "inf", "1",
                 "--tmax", "3"], {}, None, 1, "PreconditionError",
                id="h-inf",
            ),
            pytest.param(
                [*CUT[:-1], "-1"], {}, None, 2, None, id="seed-negative"
            ),
            pytest.param(
                ["char-numbers", "--space", "2", "2", "noncompact"], {}, None, 1,
                "UnsupportedSpaceError",
                id="char-numbers-dual",
            ),
            pytest.param(
                ["strata", "--space", "2", "2", "noncompact", "--seed", "7"], {}, None,
                1, "PreconditionError",
                id="strata-dual",
            ),
            pytest.param(
                ["isoclinic", "--space", "2", "2", "noncompact", "--seed1", "1",
                 "--seed2", "2"], {}, None, 1, "PreconditionError",
                id="isoclinic-dual",
            ),
            # a failed scan prints its error object alone, without CSV rows
            pytest.param(
                ["conjugate-scan", "--space", "1", "1", "noncompact", "--h", "1",
                 "--tmax", "12", "--points", "4"], {}, None, 1, "PreconditionError",
                id="scan-fails-after-two-rows",
            ),
            # numbers beyond the entry bound end in an error without warnings
            pytest.param(
                ["exp", "--space", "1", "2", "compact", "--t", "1e308"], {}, BIG_ROW_DOC,
                1, "PreconditionError",
                id="exp-t-huge",
            ),
            pytest.param(
                ["geodesic-check", "--space", "1", "2", "compact", "--t", "1e308"], {},
                BIG_ROW_DOC, 1, "PreconditionError",
                id="geodesic-check-t-huge",
            ),
            pytest.param(
                ["conjugate-times", "--space", "2", "2", "compact", "--h", "1e308",
                 "1e308", "--tmax", "3"], {}, None, 1, "PreconditionError",
                id="h-huge",
            ),
            pytest.param(
                ["exp", "--space", "2", "2", "compact"], {}, HUGE_SQUARE_DOC, 1,
                "PreconditionError",
                id="exp-entries-huge",
            ),
            pytest.param(
                ["log", "--space", "1", "1", "compact"], {}, HUGE_POINT_DOC, 1,
                "PreconditionError",
                id="log-entry-huge",
            ),
            pytest.param(
                ["conjugate-scan", "--space", "1", "1", "noncompact", "--h", "1",
                 "--tmax", "1e77", "--points", "1"], {}, None, 1, "PreconditionError",
                id="scan-dual-cosh-overflow",
            ),
        ],
    )
    def test_outcome(self, args, env, stdin, code, error, monkeypatch):
        got, out, err = run_main(args, monkeypatch, stdin=stdin, env=env)
        assert got == code
        assert "Traceback" not in err
        if code == 1:
            assert json.loads(out)["error"]["type"] == error
            assert err == ""
        elif code == 2:
            assert "usage" in err

    @pytest.mark.parametrize(
        "space, doc, message",
        [
            # each of these was truncated or coerced into a valid document
            pytest.param(
                ["1", "1"], '{"rows": 1.7, "cols": 1, "data": [[0.7, 0]]}',
                "rows and cols must be integers", id="rows-float",
            ),
            pytest.param(
                ["2", "1"], '{"rows": 2.9, "cols": 1, "data": [[0.7, 0], [0.1, 0]]}',
                "rows and cols must be integers", id="rows-float-truncated",
            ),
            pytest.param(
                ["1", "1"], '{"rows": true, "cols": 1, "data": [[0.7, 0]]}',
                "rows and cols must be integers", id="rows-bool",
            ),
            pytest.param(
                ["1", "1"], '{"rows": 1, "cols": "1", "data": [[0.7, 0]]}',
                "rows and cols must be integers", id="cols-string",
            ),
            pytest.param(
                ["1", "1"], '{"rows": 1, "cols": 1, "data": [[true, false]]}',
                "pairs of numbers", id="data-bool",
            ),
            pytest.param(
                ["1", "1"], '{"rows": 1, "cols": 1, "data": [["0.7", 0]]}',
                "pairs of numbers", id="data-string",
            ),
            # an integer too large for a float once escaped as OverflowError
            pytest.param(
                ["1", "1"], '{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}',
                "entry above", id="data-int-huge",
            ),
        ],
    )
    def test_document_misread_refused(self, space, doc, message, monkeypatch):
        code, out, err = run_main(["exp", "--space", *space, "compact"], monkeypatch, stdin=doc)
        assert (code, err) == (1, "")
        error = json.loads(out)["error"]
        assert error["type"] == "PreconditionError"
        assert message in error["message"]

    @pytest.mark.parametrize(
        "kind, space, z1, z2, expected",
        [
            # the dual has no polar divisor: an overlap of 8.9e-36 is a diastasis
            pytest.param(
                "noncompact", ["3", "3"], np.zeros((3, 3)), (1 - 1e-12) * np.eye(3),
                (0, '{"diastasis":80.813688172000241}\n'), id="dual-near-the-boundary",
            ),
            pytest.param(
                "compact", ["2", "2"], 1e9 * np.eye(2), -1e-9 * np.eye(2),
                (1, '{"error":{"message":"overlap vanishes: second point lies on the polar '
                    'divisor of the first","type":"DiastasisUndefinedError"}}\n'),
                id="compact-polar-pair",
            ),
        ],
    )
    def test_diastasis_outcome(self, tmp_path, kind, space, z1, z2, expected):
        docs = [write_doc(tmp_path / f"{name}.json", z) for name, z in (("z1", z1), ("z2", z2))]
        argv = ["diastasis", "--space", *space, kind, "--z1", docs[0], "--z2", docs[1]]
        assert run_main(argv) == (*expected, "")

    @pytest.mark.parametrize(
        "command, space, z1, z2, error",
        [
            # |Z| >= 1.3e154 overflows I + Z Z^dagger
            *(
                pytest.param(
                    command, ["1", "1"], [[0.5]], [[2e154]], "PreconditionError",
                    id=f"{command}-entry-huge",
                )
                for command in ("overlap", "distance", "diastasis", "cayley")
            ),
            # each diagonal kernel is 1 + 1e300, their product overflows
            pytest.param(
                "overlap", ["1", "1"], [[1e150]], [[1e150]], "NumericalFailure",
                id="overlap-normalization-overflow",
            ),
            # float64 rounds I + Z Z^dagger to a singular matrix
            pytest.param(
                "diastasis", ["2", "1"], [[0.0], [0.0]], [[1e77j], [1e8j]],
                "NumericalFailure",
                id="diastasis-scales-apart",
            ),
        ],
    )
    def test_pair_outcome(self, tmp_path, command, space, z1, z2, error):
        docs = [write_doc(tmp_path / f"{name}.json", z) for name, z in (("z1", z1), ("z2", z2))]
        code, out, err = run_main(
            [command, "--space", *space, "compact", "--z1", docs[0], "--z2", docs[1]]
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == error
        assert err == ""

    @pytest.mark.parametrize(
        "command, expected",
        [
            # det(I - Z2 Z2^dagger) = (2e-12)^40 underflows to 0, and the dual kernel is 1 / det
            *(
                pytest.param(
                    command,
                    (1, '{"error":{"message":"kernel determinant is outside the float64 range",'
                        '"type":"PreconditionError"}}\n'),
                    id=f"{command}-dual-det-underflow",
                )
                for command in ("overlap", "diastasis")
            ),
            # distance reads the chart SVDs and forms no kernel
            pytest.param(
                "distance", (0, '{"distance":89.568954602628551}\n'), id="distance-dual-g40",
            ),
        ],
    )
    def test_dual_kernel_det_underflow(self, tmp_path, command, expected):
        docs = [write_doc(tmp_path / f"{name}.json", z)
                for name, z in (("z1", np.zeros((40, 40))), ("z2", (1 - 1e-12) * np.eye(40)))]
        argv = [command, "--space", "40", "40", "noncompact", "--z1", docs[0], "--z2", docs[1]]
        assert run_main(argv) == (*expected, "")

    def test_distance_scales_apart(self, tmp_path):
        # the frame comes from the thin SVD of Z, so I + Z Z^dagger, which
        # float64 rounds to a singular matrix, is never formed
        docs = [write_doc(tmp_path / f"{name}.json", z)
                for name, z in (("z1", [[0.0], [0.0]]), ("z2", [[1e77j], [1e8j]]))]
        argv = ["distance", "--space", "2", "1", "compact", "--z1", docs[0], "--z2", docs[1]]
        assert run_main(argv) == (0, '{"distance":1.5707963267948966}\n', "")

    @pytest.mark.parametrize(
        "tmax, points, stdout",
        [
            # the third point (t = 9) is the first past the dual limit of 7
            pytest.param(
                "12", "4",
                '{"error":{"message":"dual dexp is measured up to |t B|_2 = 7, got about 9: '
                'past it the central difference runs out of digits","type":"PreconditionError"}}\n',
                id="third-point-fails",
            ),
            # where cosh would overflow, the limit fails first
            pytest.param(
                "1e77", "1",
                '{"error":{"message":"dual dexp is measured up to |t B|_2 = 7, got about 1e+77: '
                'past it the central difference runs out of digits","type":"PreconditionError"}}\n',
                id="cosh-overflows",
            ),
        ],
    )
    def test_failed_scan_bytes(self, tmax, points, stdout):
        argv = ["conjugate-scan", "--space", "1", "1", "noncompact", "--h", "1",
                "--tmax", tmax, "--points", points]
        assert run_main(argv) == (1, stdout, "")

    @pytest.mark.parametrize(
        "argv, exponent, plain",
        [
            pytest.param(
                ["conjugate-times", "--space", "2", "2", "compact", "--h", "0.8", "X",
                 "--tmax", "3"], "-6e-1", "-0.6",
                id="h",
            ),
            pytest.param(
                ["critical-points", "--space", "2", "1", "compact", "--eps", "X", "0.5", "3"],
                "-1e+20", "-100000000000000000000",
                id="eps",
            ),
            pytest.param(
                ["exp", "--space", "1", "1", "compact", "--input", "-", "--t", "X"],
                "-1e-1", "-0.1",
                id="t",
            ),
        ],
    )
    def test_negative_exponent_is_a_value(self, argv, exponent, plain, monkeypatch):
        # argparse 3.11 reads -6e-1 as an option; it must parse as -0.6 does
        got, want = (
            run_main([word if a == "X" else a for a in argv], monkeypatch, stdin=POINT_DOC)
            for word in (exponent, plain)
        )
        assert got[0] != 2
        assert got == want

    @pytest.mark.parametrize("word", ["-inf", "-Infinity", "-NAN"])
    @pytest.mark.parametrize(
        "argv, same",
        [
            pytest.param(
                ["exp", "--space", "1", "1", "compact", "--input", "-", "--t", "X"],
                ["exp", "--space", "1", "1", "compact", "--input", "-", "--t=X"],
                id="t",
            ),
            pytest.param(
                ["conjugate-times", "--space", "2", "2", "compact", "--h", "1", "X",
                 "--tmax", "3"],
                ["conjugate-times", "--space", "2", "2", "compact", "--h", "1", "inf",
                 "--tmax", "3"],
                id="h",
            ),
        ],
    )
    def test_negative_infinity_is_a_value(self, argv, same, word, monkeypatch):
        # read as an option, -inf was a usage error; as a value it fails the
        # numeric check, as --t=-inf and a positive inf do
        got, want = (
            run_main([a.replace("X", word) for a in args], monkeypatch, stdin=POINT_DOC)
            for args in (argv, same)
        )
        assert (got[0], '"PreconditionError"' in got[1]) == (1, True)
        assert got == want


def test_a_scan_is_refused_on_its_total_work(monkeypatch):
    # a G_4(C^8) point has 4nm (n+m)^2 = 4096 projection entries: 3164 points fit in the
    # work of 10000 G_3(C^6) points of 1296 each, and 3165 are refused before any point runs
    ran = []
    monkeypatch.setattr(loci, "_dexp_scan", lambda space, B, ts: ran.append(len(ts)) or ts)
    assert run_main(["conjugate-scan", "--space", "3", "3", "compact", "--h", "1", "1", "1",
                     "--tmax", "1", "--points", "10000"])[0] == 0
    g48 = ["conjugate-scan", "--space", "4", "4", "compact", "--h", "1", "1", "1", "1",
           "--tmax", "1", "--points"]
    assert run_main([*g48, "3164"])[0] == 0
    code, out, err = run_main([*g48, "3165"])
    assert (code, err, json.loads(out)["error"]["type"]) == (1, "", "EnumerationSizeError")
    assert ran == [10000, 3164]


def test_scan_flags_every_point_near_a_predicted_time():
    # the reference tests each point against every predicted time
    space = ["--space", "2", "2", "compact", "--h", "0.8", "0.6", "--tmax", "60"]
    times = [c["t"] for c in json.loads(run_main(["conjugate-times", *space])[1])["times"]]
    code, out, err = run_main(["conjugate-scan", *space, "--points", "700"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    want = [int(any(abs(float(t) - p) < 1e-2 for p in times)) for t, _, _ in rows]
    assert (code, err, len(rows)) == (0, "", 700)
    assert [int(flag) for _, _, flag in rows] == want
    assert 10 < sum(want) < 690
