"""Command-line interface tests: payload shapes, exit codes, determinism."""

import hashlib
import json
import math
import time

import pytest
from mpmath import mpf

import discrete_epi.cli as cli
from discrete_epi import asymptotics, dist_core, epi_engine
from discrete_epi.errors import ConsistencyError


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGapCommand:
    def test_json_payload(self, capsys):
        code, out, err = run(capsys, ["gap", "--m", "1", "--n", "2", "--p", "0.5"])
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert set(payload) == {"m", "n", "p", "gap", "holds", "precision"}
        assert payload["m"] == 1 and payload["n"] == 2
        assert payload["holds"] is True
        assert payload["precision"] == 50
        assert math.isclose(float(payload["gap"]), 0.3168057427120163, rel_tol=1e-12)

    def test_deterministic_output(self, capsys):
        argv = ["gap", "--m", "2", "--n", "3", "--p", "0.37"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_negative_gap_reported(self, capsys):
        code, out, _ = run(capsys, ["gap", "--m", "1", "--n", "1", "--p", "0.2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is False
        assert float(payload["gap"]) < 0


class TestSweepCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--m", "1", "--n", "1",
             "--p-min", "0.2", "--p-max", "0.8", "--steps", "5"],
        )
        assert code == 0
        assert "\r" not in out
        lines = out.split("\n")
        assert lines[0] == "p,gap"
        assert lines[-1] == ""
        assert len(lines) == 7  # header + 5 rows + trailing newline
        first_p = float(lines[1].split(",")[0])
        assert math.isclose(first_p, 0.2, rel_tol=1e-12)

    def test_single_point(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--m", "1", "--n", "2", "--p", "0.3"])
        assert code == 0
        rows = [line for line in out.strip().split("\n")[1:]]
        assert len(rows) == 1

    def test_svg_output(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--m", "1", "--n", "2", "--steps", "5", "--format", "svg"],
        )
        assert code == 0
        assert out.startswith("<svg")
        assert "<polyline" in out
        assert out.rstrip().endswith("</svg>")


class TestThresholdCommand:
    def test_symmetric_point(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--p", "0.5", "--cap", "40"])
        assert code == 0
        payload = json.loads(out)
        assert payload["formula_a"] == 7
        assert payload["formula_b"] == 7
        assert payload["empirical_n0"] == 1
        assert float(payload["t"]) == 0.0


class TestGridCommand:
    def test_all_hold_at_half(self, capsys):
        code, out, _ = run(capsys, ["grid", "--m", "3", "--n", "3", "--p", "0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_hold"] is True
        assert len(payload["cells"]) == 9
        assert payload["worst_cell"] == {"m": 1, "n": 1}


class TestBoundCommand:
    def test_harmonic_value(self, capsys):
        code, out, _ = run(capsys, ["bound", "--p", "0.5", "--n", "4", "--l", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["cumulative_holds"] is True
        assert payload["harmonic_holds"] is True
        assert math.isclose(float(payload["harmonic_bound"]), 805 / 576, rel_tol=1e-12)
        assert float(payload["cumulative_bound"]) <= float(payload["entropy"])


class TestDiscriminationCommand:
    def test_step_equals_direct(self, capsys):
        code, out, _ = run(capsys, ["discrimination", "--n", "1", "--p", "0.5"])
        assert code == 0
        payload = json.loads(out)
        assert float(payload["step_vs_direct"]) == 0.0
        assert float(payload["series_vs_direct"]) <= float(payload["series_tail_bound"])

    def test_deep_tolerance_exceeds_budget(self, capsys):
        code, out, err = run(
            capsys, ["discrimination", "--n", "1", "--p", "0.5", "--tol", "1e-25"]
        )
        assert code == 3
        assert out == ""
        assert "budget" in err
        assert "terms_used=10000" in err
        fields = dict(
            item.split("=") for item in err.split("partial evaluation: ")[1].strip().split(", ")
        )
        assert sorted(fields) == ["partial_sum", "tail_bound", "terms_used"]
        assert 0 < mpf(fields["partial_sum"]) < mpf("0.7")
        assert mpf("1e-25") < mpf(fields["tail_bound"]) < mpf("1e-4")

    def test_infinite_tolerance_is_bad_args(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["discrimination", "--n", "3", "--p", "0.3", "--tol", "inf"])
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", "error: tol must be finite, got +inf\n")


class TestCertifyCommand:
    # sha256 of the stdout of `certify --sub X`: every coefficient, byte
    # for byte, as the frozen certificates print it
    STDOUT_SHA256 = {
        "A": "31e3277d761c282b31dcac7d3941224eefddd9ef26d457dbd347756eacdf99af",
        "Aprime": "7ed072aac07d23a68329a8cf6b2a47e6737f66c5d1bd9fc2120a24edf9cea4a1",
        "B": "3bbbf0efb465951a61dbf3f7352db77c148126d3db3cd569f4ba2dcdfb0f59e5",
        "C": "fcd951642063d3ce2087901ad26a2d893f8bf7e2b3fb697d420abd1d330f9627",
        "control": "45534007a16fa3e66a6f47ed6fb4cc6c5476bb5eb66b05b2feeca48c3d138e59",
    }

    @pytest.mark.parametrize("sub", sorted(STDOUT_SHA256))
    def test_output_bytes_pinned(self, capsys, sub):
        code, out, err = run(capsys, ["certify", "--sub", sub])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[sub]

    def test_production_certificate(self, capsys):
        code, out, _ = run(capsys, ["certify", "--sub", "A"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_nonneg"] is True
        assert payload["min_coefficient"] == "35/1"

    def test_control_reports_failure_with_clean_exit(self, capsys):
        code, out, _ = run(capsys, ["certify", "--sub", "control"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_nonneg"] is False
        assert payload["min_coefficient"].startswith("-")

    def test_consistency_failure_exit_code(self, capsys, monkeypatch):
        def broken(sub_id):
            raise ConsistencyError("forced contradiction")

        monkeypatch.setattr(cli, "certify", broken)
        code, out, err = run(capsys, ["certify", "--sub", "A"])
        assert code == 4
        assert "consistency" in err


class TestOutputPins:
    # sha256 of the stdout of one command per subcommand (certify is
    # pinned above), byte for byte as the field-by-field payloads printed it
    STDOUT_SHA256 = {
        "gap --m 2 --n 3 --p 0.37":
            "993136566ee2d0c8319953fecd8bced688125401d405d74d1194ddaabf73cfab",
        "sweep --m 1 --n 2 --p-min 0.2 --p-max 0.8 --steps 7":
            "bf6e8e092ff74e9a67291ab4898463dc4240e6522c3fb99a3fe4af4e89679664",
        "sweep --m 1 --n 2 --steps 5 --format svg":
            "9ff7e61a7c7c9eb3973e6bc137b5436d129e40a9dd95177867ddcbb87b9a361c",
        # one point: the x and y ranges of the plot are both degenerate
        "sweep --m 1 --n 2 --p 0.3 --format svg":
            "bc3a39c0eeddb9682073a9cdb7caf1f824fcc85b293fc914ddea5beecfd0e11b",
        "threshold --p 0.3 --cap 60":
            "1fba1d741470a13a5c17d895056985882b3d0148a35e4c8653865e4773293f42",
        "grid --m 3 --n 2 --p 0.3":
            "3406dc3c15d7d68334b1e2987211a907ffa915581e9bcd285a3cd6f412243fb2",
        "bound --p 0.3 --n 12 --l 2":
            "ead124b3e1632752a3257676a0e39de38c8ff9b8bfdd1cec526a0dadd59ebaab",
        "discrimination --n 5 --p 0.3":
            "609bf5a698998845a4d1fd127c4bae5cbbceb9984a4ec2a376613915a016e71e",
        "knessl --p 0.3 --n 64":
            "00a1a4d8a8f9184d9f808119d3cdd3ab8255ba3aade5050e60356a326a9b2d96",
        # kappa_3 = 0: the predicted exponent is 2
        "knessl --p 0.5 --n 8":
            "134c54def5979563d5c4c4f4d19acad45ff5674c39d4952657b1b15a09a91e89",
        "smooth --p 0.3 --n 8 --sigma 1e-3":
            "10edf76b0e0248c5b89b4a66317806d997ca4c11c8837b88ea54456eafe303a7",
        "smooth --p 0.3 --n 8 --sigma 0.5":
            "456d0511d590e023119779954008ab58a4dc55d0193a3cb5a415fbbf269f873d",
        "tulino --p 0.3 --sigma 1e-3 --n-min 8 --n-max 11 --precision 30":
            "1906856812d370d53618340d2444e1b326970fc889f4fea5fba5086cd7c2e164",
        "preset fig1":
            "6c0b38876e7984844e7fbe8d92c2bd41ca037e41b06376e1d577b2ecdd74334e",
        "preset thresholds":
            "73b6c080163562bb4973b664f0e96893d7a801af9a0ea9cd5f082dc2e441cdcd",
    }

    @pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
    def test_stdout_bytes_pinned(self, capsys, command):
        code, out, err = run(capsys, command.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[command]

    REFUSALS = {
        "discrimination --n 3 --p 0.5 --tol 1e-30": (
            3,
            "computation budget exceeded: series tail bound 3.1249219e-6 still "
            "above tol after 10000 terms; partial evaluation: terms_used=10000, "
            "partial_sum=0.15204629061868664314409866878741217102650822215292, "
            "tail_bound=0.0000031249218750000976562495117187551879881866455107826\n",
        ),
        "bound --p 0 --n 4": (2, "error: p must lie strictly in (0, 1), got 0.0\n"),
        # n and l are checked before B(n) is built or its weight budget read
        "bound --p 0.3 --n -1": (2, "error: n must be a positive integer, got -1\n"),
        "bound --p 0.3 --n 20000 --l 0": (2, "error: l must be a positive integer, got 0\n"),
        # harmonic order 2l = 34 needs moments to order 4l + 1 = 69
        "bound --p 0.3 --n 4 --l 17": (
            3, "computation budget exceeded: moment order 69 is past the 65-order budget\n",
        ),
        "threshold --p 0": (2, "error: p must lie strictly in (0, 1), got 0.0\n"),
        "discrimination --n 3 --p 0": (2, "error: p must lie strictly in (0, 1), got 0.0\n"),
        "sweep --m 1 --n 1 --p 0": (2, "error: p must lie strictly in (0, 1), got 0.0\n"),
        "sweep --m 1 --n 2 --p-min 0.6 --p-max 0.4": (
            2, "error: p-min must not exceed p-max, got 0.6 > 0.4\n",
        ),
        "knessl --p 0.3 --n 4": (2, "error: the decay scan needs --n >= 8\n"),
        "tulino --p 0.3 --sigma 0.001 --n-min 5 --n-max 4": (2, "error: need 2 <= n-min <= n-max\n"),
        "smooth --p 0.5 --n 8 --sigma 0.3 --tol inf": (
            2, "error: tolerance must be finite, got +inf\n",
        ),
        "tulino --p 0.5 --sigma 0.3 --n-min 2 --n-max 3 --tol inf": (
            2, "error: tolerance must be finite, got +inf\n",
        ),
        "gap --m 0 --n 1 --p 0.3": (2, "error: m must be a positive integer, got 0\n"),
        "grid --m 0 --n 3 --p 0.3": (2, "error: m_max must be a positive integer, got 0\n"),
        "smooth --p 0.5 --n 8 --sigma 0.3 --tol 0": (
            2, "error: tolerance must be positive, got 0.0\n",
        ),
        "sweep --m 1 --n 1 --steps 0": (2, "error: steps must be a positive integer, got 0\n"),
        "tulino --p 0.5 --sigma -0.5 --n-min 3 --n-max 4": (
            2, "error: sigma must be positive, got -0.5\n",
        ),
        "tulino --p 0.3 --sigma 1e-3 --n-min 16380 --n-max 16384 --precision 20": (
            3, "computation budget exceeded: n=16384: B(n) is past the 16384-weight budget\n",
        ),
        # 16,385 3-row chains would take about 3 s, but the p grid is past its budget
        "sweep --m 1 --n 1 --steps 16385": (
            3, "computation budget exceeded: steps=16385 puts the sweep past the 16384-step budget\n",
        ),
        # 197 chains of 16,001 rows, about 2.7 h
        "sweep --m 8000 --n 8000": (
            3,
            "computation budget exceeded: 197 chains of 16001 rows cost more than one "
            "16384-row chain\n",
        ),
    }

    @pytest.mark.parametrize("command", sorted(REFUSALS))
    def test_refusal_pinned(self, capsys, command):
        code, err = self.REFUSALS[command]
        assert run(capsys, command.split()) == (code, "", err)


class TestDegenerateProbabilities:
    ARGS = {
        "gap": ["--m", "2", "--n", "3"],
        "sweep": ["--m", "1", "--n", "2"],
        "threshold": ["--cap", "40"],
        "grid": ["--m", "2", "--n", "2"],
        "bound": ["--n", "4"],
        "discrimination": ["--n", "3"],
        "knessl": ["--n", "8"],
        "smooth": ["--n", "4", "--sigma", "0.5"],
        "tulino": ["--sigma", "1e-3", "--n-min", "2", "--n-max", "3"],
    }

    @pytest.mark.parametrize("p", ["0", "1"])
    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_every_exit_code_is_documented(self, capsys, command, p):
        code, _, _ = run(capsys, [command, "--p", p] + self.ARGS[command])
        assert code in (0, 2, 3, 4)

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_knessl_point_mass_is_bad_args(self, capsys, p):
        code, out, err = run(capsys, ["knessl", "--p", p, "--n", "8"])
        assert (code, out) == (2, "")
        assert "at least 2 support points" in err


class TestKnesslCommand:
    def test_skewed_decay_report(self, capsys):
        code, out, _ = run(capsys, ["knessl", "--p", "0.3", "--n", "64"])
        assert code == 0
        payload = json.loads(out)
        assert payload["negativity_onset"] == 8
        assert payload["predicted_exponent"] == 1
        assert set(payload["g"]) == {"8", "16", "32", "64"}
        assert all(float(v) < 0 for v in payload["g"].values())


class TestSmoothCommand:
    def test_excess_at_small_sigma(self, capsys):
        code, out, _ = run(
            capsys, ["smooth", "--p", "0.5", "--n", "1", "--sigma", "1e-3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert math.isclose(
            float(payload["excess_over_floor"]), math.log(2), abs_tol=1e-6
        )

    def test_closed_form_answers_below_the_floor(self, capsys):
        # 1e-20 is below the truncation floor of the trapezoid's region,
        # but the peaks are disjoint and the closed form's bound fits it.
        code, out, _ = run(
            capsys,
            ["smooth", "--p", "0.5", "--n", "4", "--sigma", "1e-3", "--tol", "1e-20"],
        )
        assert code == 0
        assert 0 < float(json.loads(out)["quadrature_error"]) <= 1e-20

    def test_unreachable_tolerance_exit(self, capsys):
        code, _, err = run(
            capsys,
            ["smooth", "--p", "0.5", "--n", "1", "--sigma", "1", "--tol", "1e-30"],
        )
        assert code == 3
        assert "budget" in err

    def test_infinite_sigma_is_bad_args(self, capsys):
        code, out, err = run(capsys, ["smooth", "--p", "0.3", "--n", "4", "--sigma", "inf"])
        assert (code, out) == (2, "")
        assert "sigma" in err


class TestWorkBudgets:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--m", "1000000", "--n", "1", "--p", "0.3"],
            ["threshold", "--p", "0.5", "--cap", "200000"],
        ],
    )
    def test_unbounded_chain_is_refused_at_once(self, capsys, argv):
        started = time.monotonic()
        code, out, err = run(capsys, argv)
        assert time.monotonic() - started < 1
        assert code == 3
        assert out == ""
        assert err.startswith("computation budget exceeded: ")
        assert "row budget" in err

    @pytest.mark.parametrize(
        "argv, budget",
        [
            (["bound", "--p", "0.3", "--n", "1000000"], "weight budget"),
            (["discrimination", "--n", "1000000", "--p", "0.3"], "weight budget"),
            (["discrimination", "--n", "16383", "--p", "0.3"], "weight budget"),
            (["grid", "--m", "3000", "--n", "3000", "--p", "0.3"], "cell budget"),
        ],
    )
    def test_oversized_pmf_or_grid_is_refused_at_once(self, capsys, argv, budget):
        started = time.monotonic()
        code, out, err = run(capsys, argv)
        assert time.monotonic() - started < 1
        assert code == 3
        assert out == ""
        assert err.startswith("computation budget exceeded: ")
        assert budget in err

    @pytest.mark.parametrize("p, n", [("0.5", "100000000"), ("0.3", "5000000")])
    def test_oversized_sum_is_refused_at_once(self, capsys, monkeypatch, p, n):
        def refuse(a, b):
            raise AssertionError("convolved before the budget check")

        monkeypatch.setattr(dist_core, "convolve", refuse)
        started = time.monotonic()
        code, out, err = run(capsys, ["knessl", "--p", p, "--n", n])
        assert time.monotonic() - started < 1
        assert code == 3
        assert out == ""
        assert err.startswith("computation budget exceeded: ")
        assert "point budget" in err

    def test_oversized_tulino_computes_no_row(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a row was computed before the budget check")

        monkeypatch.setattr(asymptotics, "binomial_pmf", refuse)
        monkeypatch.setattr(asymptotics, "gaussian_smoothed_entropy", refuse)
        argv = ["tulino", "--p", "0.3", "--sigma", "1e-3", "--n-min", "2", "--n-max", "16384"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert "16384-weight budget" in err
        # n-max 16,383 still fits: its first row is computed.
        argv[-1] = "16383"
        with pytest.raises(AssertionError, match="a row was computed"):
            cli.main(argv)

    def test_sweep_costs_at_most_the_largest_chain(self, capsys, monkeypatch):
        # 128-row chains: 16,384 steps cost one 16,384-row chain, one more is refused.
        calls = []

        def gap(m, n, p, precision):
            calls.append(p)
            return epi_engine.EpiReport(m, n, p, mpf(0), True, precision)

        monkeypatch.setattr(epi_engine, "epi_gap", gap)
        argv = ["sweep", "--m", "100", "--n", "27", "--steps", "16385"]
        code, out, err = run(capsys, argv)
        assert (code, out, calls) == (3, "", [])
        assert err == (
            "computation budget exceeded: 16385 chains of 128 rows cost more than one "
            "16384-row chain\n"
        )
        argv[-1] = "16384"
        code, out, _ = run(capsys, argv)
        assert (code, len(calls), out.count("\n")) == (0, 16384, 16385)

    def test_sweep_steps_are_held_to_the_budget(self, capsys, monkeypatch):
        # 3-row chains: 16,385 steps fit the chain cost but not the step budget.
        calls = []

        def gap(m, n, p, precision):
            calls.append(p)
            return epi_engine.EpiReport(m, n, p, mpf(0), True, precision)

        monkeypatch.setattr(epi_engine, "epi_gap", gap)
        argv = ["sweep", "--m", "1", "--n", "1", "--steps", "16385"]
        code, out, err = run(capsys, argv)
        assert (code, out, calls) == (3, "", [])
        assert err == (
            "computation budget exceeded: steps=16385 puts the sweep past the "
            "16384-step budget\n"
        )
        argv[-1] = "16384"
        code, out, _ = run(capsys, argv)
        assert (code, len(calls), out.count("\n")) == (0, 16384, 16385)


class TestTulinoCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys,
            ["tulino", "--p", "0.5", "--sigma", "1e-3",
             "--n-min", "8", "--n-max", "10", "--precision", "30"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,increment,half_log,full_log,meets_half,meets_full"
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == "true" and fields[5] == "true"

    def test_infinite_sigma_is_bad_args(self, capsys):
        code, out, err = run(
            capsys,
            ["tulino", "--p", "0.3", "--sigma", "inf", "--n-min", "2", "--n-max", "3"],
        )
        assert (code, out) == (2, "")
        assert "sigma" in err


class TestOutputFile:
    def test_out_matches_stdout(self, capsys, tmp_path):
        argv = ["sweep", "--m", "1", "--n", "1", "--steps", "5"]
        _, stdout_text, _ = run(capsys, argv)
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, argv + ["--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_unwritable_path_is_bad_args(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["gap", "--m", "1", "--n", "1", "--p", "0.5",
             "--out", str(tmp_path / "missing" / "deep.json")],
        )
        assert code == 2
        assert err != ""


class TestBadArguments:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, ["gap", "--m", "1", "--p", "0.5"])
        assert code == 2

    def test_precision_too_low(self, capsys):
        code, _, err = run(
            capsys, ["gap", "--m", "1", "--n", "1", "--p", "0.5", "--precision", "5"]
        )
        assert code == 2
        assert "precision" in err

    def test_probability_out_of_range(self, capsys):
        code, _, _ = run(capsys, ["threshold", "--p", "1.5"])
        assert code == 2

    def test_help_exits_clean(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "discrete-epi" in out


class TestPresets:
    def test_small_skew_certificate(self, capsys):
        code, out, _ = run(capsys, ["preset", "certifyC"])
        assert code == 0
        payload = json.loads(out)
        assert payload["substitution"] == "C"
        assert payload["all_nonneg"] is True
        assert payload["min_coefficient"] == "8960/1"

    def test_gap_figure_to_file(self, capsys, tmp_path):
        target = tmp_path / "fig1.csv"
        code, out, _ = run(capsys, ["preset", "fig1", "--out", str(target)])
        assert code == 0
        assert out == ""
        lines = target.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "p,gap"
        assert len(lines) == 198  # header + 197 grid points
