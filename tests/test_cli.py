import argparse
import json
import os
import random
import re
import stat
import time
from pathlib import Path

import pytest

from apresidues import cli, residues
from apresidues.bigmod import is_prime, primes_up_to
from apresidues.cli import (
    EXIT_ABSENT,
    EXIT_BEYOND_BOUND,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)

import pins
from conftest import P24, reference_sweep_primes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSymbol:
    def test_published_nonresidue(self, capsys):
        code, out, _ = run_cli(capsys, "symbol", "--n", "5", "--p", "1000000000000000000000007")
        assert code == EXIT_OK
        assert "Nonresidue" in out
        assert "witness" in out

    def test_square_is_residue(self, capsys):
        code, out, _ = run_cli(capsys, "symbol", "--n", "4", "--p", "41", "--k", "2", "--allow-small")
        assert code == EXIT_OK
        assert "Residue" in out

    def test_seventh_power_table_head_is_residue(self, capsys):
        # 19 heads the published table, which lists exact-order elements;
        # under the Euler criterion it is a residue
        code, out, _ = run_cli(capsys, "symbol", "--n", "19", "--p", "10^48+217", "--k", "7")
        assert code == EXIT_OK
        assert "verdict: Residue" in out

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "symbol", "--n", "5", "--p", "40")
        assert code == EXIT_DOMAIN
        assert "domain error" in err

    def test_small_prime_needs_flag(self, capsys):
        code, _, err = run_cli(capsys, "symbol", "--n", "4", "--p", "13")
        assert code == EXIT_DOMAIN

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "symbol", "--n", "5")
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE


class TestSearch:
    def test_published_example(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--target", "nonresidue", "--k", "2",
                               "--q", "4", "--a", "1", "--p", "10^24+7")
        assert code == EXIT_OK
        assert "found: 5" in out
        assert "within bound: True" in out

    def test_generator_target(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--target", "generator", "--k", "3",
                               "--q", "8", "--a", "7", "--p", "2^128+51",
                               "--factors", "2,3,17,89,6481,5816689,12275703273579557140363")
        assert code == EXIT_OK
        assert "found: 23" in out

    def test_generator_without_factors_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "search", "--target", "generator", "--k", "3",
                               "--q", "8", "--a", "7", "--p", "2^128+51")
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("factors,code,found", [("2,15", EXIT_DOMAIN, None),
                                                    ("2,3,5", EXIT_BEYOND_BOUND, "found: 41")])
    def test_generator_factors_at_31(self, capsys, factors, code, found):
        # read as a prime, 15 would let 2 (order 5) pass as a generator of the
        # order-15 subgroup
        got, out, err = run_cli(capsys, "search", "--target", "generator", "--k", "2", "--q", "3",
                                "--a", "2", "--p", "31", "--allow-small", "--factors", factors)
        assert got == code
        if found:
            assert found in out
        else:
            assert "factor 15 of p-1=30 is not prime" in err
            assert "found" not in out

    def test_factors_that_are_not_integers_are_domain_errors(self, capsys):
        code, out, err = run_cli(capsys, "search", "--target", "generator", "--k", "2", "--q", "4",
                                 "--a", "1", "--p", "10^24+7", "--factors", "2,x")
        assert code == EXIT_DOMAIN
        assert "--factors" in err
        assert out == ""

    def test_absent_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--target", "residue", "--k", "2",
                               "--q", "4", "--a", "3", "--p", "41", "--allow-small",
                               "--scan-limit", "20")
        assert code == EXIT_ABSENT
        assert "none" in out

    def test_beyond_bound_exit_code(self, capsys):
        # p = 17: bound = log(17)*loglog(17)^3 ~ 2.83*... is tiny (< 3), and
        # the least prime residue 1 mod 4 mod 17 is 13 > bound
        code, out, _ = run_cli(capsys, "search", "--target", "residue", "--k", "2",
                               "--q", "4", "--a", "1", "--p", "17")
        assert code == EXIT_BEYOND_BOUND
        assert "within bound: False" in out


class TestCount:
    def test_count_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--target", "nonresidue", "--k", "2",
                               "--q", "4", "--a", "1", "--p", "10^24+7")
        assert code == EXIT_OK
        assert "main term       = 892.2" in out
        assert "weighted count" in out
        assert "density estimate" in out

    def test_count_report_written(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "count", "--target", "nonresidue", "--k", "2",
                               "--q", "4", "--a", "1", "--p", "41", "--x", "300",
                               "--allow-small", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        csv_path = tmp_path / "count-k2-q4-a1.count.csv"
        assert csv_path.exists()
        body = csv_path.read_text().splitlines()
        assert body[1].startswith("p,k,q,a,target,x,")
        assert body[2].startswith("41,2,4,1,nonresidue,300,")

    def test_k_zero_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "count", "--target", "nonresidue", "--k", "0", "--q", "4",
                                 "--a", "1", "--p", "10^24+7", "--x", "100")
        assert code == EXIT_DOMAIN
        assert "k must be >= 2, got 0" in err
        assert out == ""


@pytest.mark.parametrize("argv,digest,provenance", pins.PINS, ids=[" ".join(argv) for argv, _, _ in pins.PINS])
def test_stdout_is_pinned_byte_for_byte(capsys, argv, digest, provenance):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert pins.digest(out.encode()) == digest, provenance


@pytest.mark.parametrize("run,section,digest,provenance", pins.SECTION_PINS,
                         ids=[f"{pins.label(run)} {section}" for run, section, _, _ in pins.SECTION_PINS])
def test_report_section_is_pinned(capsys, tmp_path, run, section, digest, provenance):
    code, _, _ = run_cli(capsys, *pins.report_argv(run, tmp_path))
    assert code == EXIT_OK
    assert pins.section_digest(tmp_path, section) == digest, provenance


# subcommand -> option -> (default, required, choices, type, nargs), as each
# subcommand declared them when it defined every flag of its own
_OPTIONS = {
    "symbol": {"--n": (None, True, None, None, None), "--p": (None, True, None, None, None),
               "--k": (2, False, None, int, None), "--allow-small": (False, False, None, None, 0)},
    "search": {"--target": (None, True, ["residue", "nonresidue", "generator"], None, None),
               "--k": (2, False, None, int, None), "--q": (None, True, None, int, None),
               "--a": (None, True, None, int, None), "--p": (None, True, None, None, None),
               "--epsilon": (0.0, False, None, float, None), "--scan-limit": (1000000, False, None, int, None),
               "--factors": (None, False, None, None, None), "--allow-small": (False, False, None, None, 0)},
    "count": {"--target": ("nonresidue", False, ["residue", "nonresidue"], None, None),
              "--k": (2, False, None, int, None), "--q": (None, True, None, int, None),
              "--a": (None, True, None, int, None), "--p": (None, True, None, None, None),
              "--x": (None, False, None, float, None), "--epsilon": (0.0, False, None, float, None),
              "--allow-small": (False, False, None, None, 0), "--out-dir": (None, False, None, None, None)},
    "reproduce": {"scenario": (None, True, None, None, None)},
    "expsum": {"--p": (None, True, None, int, None), "--b": (None, False, None, int, None),
               "--x-cutoff": (None, False, None, int, None), "--max-ratio-table": (False, False, None, None, 0),
               "--out-dir": (None, False, None, None, None)},
    "patterns": {"--p": (None, True, None, int, None), "--x": (None, False, None, int, None),
                 "--out-dir": (None, False, None, None, None)},
    "sweep": {"--config": (None, True, None, None, None)},
}


def test_every_subcommand_keeps_its_options():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: {" ".join(a.option_strings) or a.dest: (a.default, a.required, a.choices, a.type, a.nargs)
                  for a in command._actions if a.dest != "help"}
           for name, command in sub.choices.items()}
    assert got == _OPTIONS


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_help_exits_zero(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == EXIT_OK
    assert out.startswith(f"usage: apresidues {command} ")


@pytest.mark.parametrize("command", [
    ["search", "--target", "nonresidue", "--q", "4", "--epsilon", "nan"],
    ["count", "--q", "4", "--x", "nan"],
    ["count", "--k", "7", "--q", "3", "--epsilon", "nan"],
    ["search", "--target", "residue", "--q", "4", "--epsilon", "1000"],
])
def test_nan_or_overflowing_inputs_are_domain_errors(capsys, command):
    code, out, err = run_cli(capsys, *command, "--a", "1", "--p", "10^24+7")
    assert code == EXIT_DOMAIN
    assert command[-1] in err
    assert out == ""


class TestReproduce:
    def test_all_scenarios_exit_zero(self, capsys):
        for name in ("example-9.1", "example-9.2", "example-11.1", "example-11.2", "f41"):
            code, out, _ = run_cli(capsys, "reproduce", name)
            assert code == EXIT_OK, name
            assert "0 FAIL" in out

    def test_discrepancies_are_visible(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "example-9.1")
        assert code == EXIT_OK
        assert "DISCREPANCY" in out
        assert "composite" in out

    def test_unknown_scenario_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "example-0")
        assert code == EXIT_USAGE
        assert "unknown scenario" in err


class TestExpsumAndPatterns:
    def test_expsum_sample(self, capsys):
        code, out, _ = run_cli(capsys, "expsum", "--p", "41", "--b", "1", "--x-cutoff", "40")
        assert code == EXIT_OK
        assert "ratio" in out

    def test_expsum_table_written(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "expsum", "--p", "101", "--max-ratio-table",
                               "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        assert (tmp_path / "expsum-p101.json").exists()
        assert (tmp_path / "expsum-p101.max_ratio.csv").exists()

    def test_expsum_table_without_out_dir_builds_no_report(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a report section was built with nothing to write")

        monkeypatch.setattr(cli.ReportEnvelope, "add_section", refuse)
        code, out, _ = run_cli(capsys, "expsum", "--p", "101", "--max-ratio-table")
        assert code == EXIT_OK
        assert out.startswith("p=101 tau=2: max ratio over all b,x = ")

    def test_expsum_sample_without_out_dir_builds_no_report(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a report section was built with nothing to write")

        monkeypatch.setattr(cli.ReportEnvelope, "add_section", refuse)
        code, out, _ = run_cli(capsys, "expsum", "--p", "101", "--b", "5")
        assert code == EXIT_OK
        assert out.startswith("p=101 tau=2 b=5 x=100\n")

    def test_expsum_beyond_the_table_limit_is_resource_error(self, capsys):
        code, out, err = run_cli(capsys, "expsum", "--p", "1000003", "--max-ratio-table")
        assert code == EXIT_RESOURCE
        assert "small-field tables are limited to p <= 1000000" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [("--p", "41"), ("--p", "41", "--x-cutoff", "20"),
                                      ("--p", "41", "--x-cutoff", "20", "--max-ratio-table")])
    def test_expsum_with_nothing_to_print_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        # no --b and no --max-ratio-table, or a cutoff with no --b to apply it
        # to: refused before the table is built, and no report is written
        def refuse(p):
            raise AssertionError("a table was built for a run that prints nothing")

        monkeypatch.setattr(cli, "build_small_field_table", refuse)
        code, out, err = run_cli(capsys, "expsum", *argv, "--out-dir", str(tmp_path / "r"))
        assert code == EXIT_USAGE
        assert out == "" and "error" in err
        assert not (tmp_path / "r").exists()

    def test_expsum_table_failing_its_gauss_check_is_domain_error(self, capsys, monkeypatch):
        least = residues.least_primitive_root
        monkeypatch.setattr(residues, "least_primitive_root", lambda q, f=None: least(q, f) ** 2 % q)
        code, out, err = run_cli(capsys, "expsum", "--p", "103", "--max-ratio-table")
        assert code == EXIT_DOMAIN
        assert "Gauss sum" in err
        assert out == ""

    def test_patterns_output(self, capsys):
        code, out, _ = run_cli(capsys, "patterns", "--p", "41", "--x", "39")
        assert code == EXIT_OK
        assert "'RR': 9" in out
        assert "twin nonresidue pairs: 2/5" in out

    @pytest.mark.parametrize("argv", [("--p", "9"), ("--p", "1000001"), ("--p", "1000001", "--x", "5000")])
    def test_patterns_composite_modulus_is_domain_error(self, capsys, argv):
        # 1000001 = 101 * 9901
        code, out, err = run_cli(capsys, "patterns", *argv)
        assert code == EXIT_DOMAIN
        assert "is not prime" in err
        assert out == ""

    def test_weighted_sum_beyond_budget_is_resource_error(self, capsys):
        # x is refused for its size before the census or any sieve runs
        code, _, err = run_cli(capsys, "patterns", "--p", "10000019", "--x", "10000001")
        assert code == EXIT_RESOURCE
        assert "x=10000001" in err


class TestSweep:
    def write_config(self, tmp_path, text):
        cfg = tmp_path / "sweep.conf"
        cfg.write_text(text, encoding="utf-8")
        return str(cfg)

    def test_least_nonresidue_campaign(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, f"""
campaign = least_nonresidue
prime_min = 100000
prime_max = 140000
prime_count = 12
epsilon = 0.5
out_dir = {tmp_path}/reports
""")
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK
        assert "0 beyond-bound rows" in out
        assert (tmp_path / "reports" / "least_nonresidue.json").exists()
        assert (tmp_path / "reports" / "least_nonresidue.least_nonresidue.csv").exists()

    def test_reports_byte_stable_below_header(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, f"""
campaign = expsum
p_list = 101,241
out_dir = {tmp_path}/r1
""")
        run_cli(capsys, "sweep", "--config", cfg)
        cfg2 = self.write_config(tmp_path, f"""
campaign = expsum
p_list = 101,241
out_dir = {tmp_path}/r2
""")
        run_cli(capsys, "sweep", "--config", cfg2)
        a = (tmp_path / "r1" / "expsum.max_ratio.csv").read_text().split("\n", 1)[1]
        b = (tmp_path / "r2" / "expsum.max_ratio.csv").read_text().split("\n", 1)[1]
        assert a == b

    def test_expsum_campaign_worst_b_is_the_smaller_of_a_pair(self, capsys, tmp_path):
        # at 10007 the maximum is attained by b = 3008 and its conjugate pair 6999
        cfg = self.write_config(tmp_path, f"""
campaign = expsum
p_list = 1009,10007
out_dir = {tmp_path}/r
""")
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK
        rows = (tmp_path / "r" / "expsum.max_ratio.csv").read_text().splitlines()[2:]
        assert [row.split(",")[2] for row in rows] == ["146", "3008"]
        assert "p=10007 max ratio 0.011635 at b=3008" in out

    def test_q_rule_loglog2_widens_the_range(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, f"""
campaign = least_nonresidue
prime_min = 100000
prime_max = 110000
prime_count = 2
q_rule = loglog2
out_dir = {tmp_path}/reports
""")
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK
        csv_rows = (tmp_path / "reports" / "least_nonresidue.least_nonresidue.csv").read_text().splitlines()
        qs = {int(line.split(",")[1]) for line in csv_rows[2:]}
        assert max(qs) >= 6  # ceil(loglog(1e5)^2) = 6

    def test_least_nonresidue_campaign_at_24_digits(self, capsys, tmp_path):
        # bounds in the base^exp+offset grammar of --p; with int() this
        # config exited 2
        cfg = self.write_config(tmp_path, f"""
campaign = least_nonresidue
prime_min = 10^24
prime_max = 10^24+100000
prime_count = 3
q_rule = loglog2
out_dir = {tmp_path}/reports
""")
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK
        assert "285 progressions over 3 primes, 0 beyond-bound rows" in out
        csv_rows = (tmp_path / "reports" / "least_nonresidue.least_nonresidue.csv").read_text().splitlines()[2:]
        primes = sorted({int(row.split(",")[0]) for row in csv_rows})
        assert len(primes) == 3 and primes[0] == P24
        assert all(10**24 < p <= 10**24 + 100000 and is_prime(p) for p in primes)

    def test_density_campaign(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, f"""
campaign = density
k = 2
q = 1
a = 0
prime_min = 10000
prime_max = 10600
prime_count = 5
x_rule = prime
target = nonresidue
out_dir = {tmp_path}/reports
""")
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK
        assert (tmp_path / "reports" / "density.density.csv").exists()

    @pytest.mark.parametrize("lines,message", [
        ("k = 0\nprime_min = 1000\nprime_max = 1100", "k must be >= 2, got 0"),
        ("prime_min = 2000\nprime_max = 1000", "empty prime range"),
        ("prime_count = -1", "config key 'prime_count' must be > 0, got -1"),
        ("prime_count = 0\ntarget = both", "config key 'prime_count' must be > 0, got 0"),  # read before target
        ("prime_min = 1e4", "config key 'prime_min': cannot read '1e4' as an integer"),
        ("prime_min = 3\nprime_max = 20\nx_rule = bound", "x rule 'bound' gives x = 0.0009139 < 2 at p=3"),
    ])
    def test_density_bad_k_or_inverted_range_is_domain_error(self, capsys, tmp_path, lines, message):
        cfg = self.write_config(tmp_path, f"campaign = density\n{lines}\nout_dir = {tmp_path}/r\n")
        code, _, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_DOMAIN
        assert message in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("lines,message", [
        ("prime_count = 2\nq_rule = fixed:0", "q rule 'fixed:0' gives no progression at p=100003"),
        ("prime_count = 2\nq_rule = fixed:1", "q rule 'fixed:1' gives no progression at p=100003"),
        ("prime_min = 1000\nprime_max = 1100\nprime_count = 3",
         "q rule 'loglog' gives no progression at p=1009"),
    ])
    def test_q_rule_without_progression_is_domain_error(self, capsys, tmp_path, lines, message):
        cfg = self.write_config(tmp_path, f"campaign = least_nonresidue\n{lines}\nout_dir = {tmp_path}/r\n")
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_DOMAIN
        assert message in err
        assert out == ""
        assert not (tmp_path / "r").exists()

    def test_readme_sweep_config_runs(self, capsys, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("A sweep config is a flat key-value file:\n\n```\n", 1)[1].split("```", 1)[0]
        out_dir = tmp_path / "reports"
        cfg = self.write_config(tmp_path, re.sub(r"(?m)^out_dir = .*$", f"out_dir = {out_dir}", block))
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK
        assert "500 progressions over 500 primes, 0 beyond-bound rows" in out
        envelope = json.loads((out_dir / "least_nonresidue.json").read_text(encoding="utf-8"))
        assert envelope["checksums"]["least_nonresidue"] == (
            "d82fd997bc7ec8db3b4cd19fe7041f99a3a3f5f6ea2f45c7bf04a33513e8c28a")
        assert envelope["checksums"]["violations"] == (
            "a7b1591f62b104c1b1d45fcf63e3a74454324c53f8b1e7c06e95659efda4d1f8")

    def test_reference_density_config_checksum(self, capsys, tmp_path):
        keys = "campaign = density\nk = 2\nq = 4\na = 1\nprime_min = 100000\nprime_max = 110000\nprime_count = 25"
        cfg = self.write_config(tmp_path, f"{keys}\nout_dir = {tmp_path}/reports\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_OK
        assert "density: 25 primes, 0 skipped" in out
        envelope = json.loads((tmp_path / "reports" / "density.json").read_text(encoding="utf-8"))
        assert envelope["checksums"]["density"] == (
            "b56c686f855f30e336606c496c56c3eae168be364646fc1ee4063ce5672d7e9c")

    def test_prime_picker_matches_the_walking_reference(self):
        rng = random.Random(18)
        for _ in range(300):
            lo = rng.randrange(2, 3000)
            hi = lo + rng.randrange(1, 400)
            count = rng.randrange(1, 200)
            assert cli._sweep_primes(lo, hi, count) == reference_sweep_primes(lo, hi, count), (lo, hi, count)

    def test_prime_count_beyond_the_range_takes_every_prime(self):
        # 8,392 primes in the range: a picker that walks through its earlier
        # picks from every candidate is quadratic here
        t0 = time.perf_counter()
        got = cli._sweep_primes(100000, 200000, 32000)
        assert time.perf_counter() - t0 < 10.0
        primes = primes_up_to(200000)
        assert got == primes[primes > 100000].tolist()

    @pytest.mark.parametrize("rule,message", [
        ("fixed:x", "config key 'q_rule': cannot read 'fixed:x' as fixed:<int>"),
        ("nope", "unknown q rule 'nope'"),
    ])
    def test_bad_q_rule_is_refused_before_any_prime_is_walked(self, capsys, tmp_path, monkeypatch, rule, message):
        def refuse(n):
            raise AssertionError("a prime was walked for a config with a bad q rule")

        monkeypatch.setattr(cli, "next_prime", refuse)
        cfg = self.write_config(tmp_path, f"campaign = least_nonresidue\nq_rule = {rule}\nout_dir = {tmp_path}/r\n")
        code, out, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_DOMAIN
        assert message in err
        assert out == ""
        assert not (tmp_path / "r").exists()

    def test_undecodable_config_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.conf"
        cfg.write_bytes(f"campaign = expsum\np_list = 101\nout_dir = {tmp_path}/r\n# \xff\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert err.startswith(f"cannot read config {cfg}: ")
        assert "Traceback" not in err and out == ""
        assert not (tmp_path / "r").exists()

    def test_unknown_campaign_is_domain_error(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, "campaign = nope\n")
        code, _, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_DOMAIN

    def test_unwritable_out_dir_is_resource_error(self, capsys, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("running as root; directory permissions are not enforced")
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        cfg = self.write_config(tmp_path, f"""
campaign = expsum
p_list = 101
out_dir = {blocked}/nested
""")
        code, _, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_RESOURCE

    @pytest.mark.parametrize("argv", [
        ("count", "--target", "nonresidue", "--k", "2", "--q", "4", "--a", "1", "--p", "41",
         "--x", "300", "--allow-small"),
        ("expsum", "--p", "101", "--max-ratio-table"),
        ("patterns", "--p", "41"),
        ("sweep",),
    ])
    def test_out_dir_under_a_regular_file_is_resource_error(self, capsys, tmp_path, argv):
        # a directory cannot be made under a regular file, even as root
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "reports"
        if argv[0] == "sweep":
            cfg = self.write_config(tmp_path, f"campaign = expsum\np_list = 101\nout_dir = {out_dir}\n")
            argv = ("sweep", "--config", cfg)
        else:
            argv = (*argv, "--out-dir", str(out_dir))
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_RESOURCE
        assert f"cannot write reports to {out_dir}" in err
        assert "wrote" not in out

    def test_non_integer_values_are_domain_errors(self, capsys, tmp_path):
        for campaign, line in (("density", "k = two"), ("least_nonresidue", "prime_count = 5.5"),
                               ("patterns", "p_list = 41,x")):
            key = line.split(" = ")[0]
            cfg = self.write_config(tmp_path, f"campaign = {campaign}\n{line}\nout_dir = {tmp_path}/r\n")
            code, _, err = run_cli(capsys, "sweep", "--config", cfg)
            assert code == EXIT_DOMAIN, line
            assert f"config key '{key}'" in err

    @pytest.mark.parametrize("campaign,line", [("patterns", "p_lsit = 41"),
                                               ("least_nonresidue", "p_list = 41"),
                                               ("least_nonresidue", "workers = 2"),
                                               ("expsum", "prime_count = 5")])
    def test_unknown_keys_are_domain_errors(self, capsys, tmp_path, campaign, line):
        key = line.split(" = ")[0]
        cfg = self.write_config(tmp_path, f"campaign = {campaign}\n{line}\nout_dir = {tmp_path}/r\n")
        code, _, err = run_cli(capsys, "sweep", "--config", cfg)
        assert code == EXIT_DOMAIN
        assert f"'{key}'" in err
        assert not (tmp_path / "r").exists()


# Bad numeric input for every subcommand: k in {0, -2}, inverted ranges, NaN,
# sizes just past each budget the CLI reaches (scan and count caps, the
# small-field table, the pattern census, the sieve), and sweep configs that
# select no prime or no progression.  Each must end in a
# usage (1), domain (2) or resource (3) exit, never a traceback; main runs
# in-process, so an exception that escapes it fails the test.
_BIG = ("--q", "4", "--a", "1", "--p", "10^24+7")
_BAD_INPUTS = [
    ("symbol", "--n", "4", "--p", "41", "--k", "0", "--allow-small"),
    ("symbol", "--n", "4", "--p", "41", "--k", "-2", "--allow-small"),
    ("symbol", "--n", "nan", "--p", "41", "--allow-small"),
    ("symbol", "--n", "4", "--p", "nan"),
    # more digits than Python converts to or from a decimal string
    ("symbol", "--n", "5", "--p", "10^5000"),
    ("symbol", "--n", "10^5000", "--p", "10^24+7"),
    ("symbol", "--n", "5", "--p", "10^2+" + "7" * 5000),
    ("search", "--target", "nonresidue", "--k", "0", *_BIG),
    ("search", "--target", "generator", "--k", "-2", *_BIG, "--factors", "2,3"),
    ("search", "--target", "nonresidue", "--k", "nan", *_BIG),
    ("search", "--target", "nonresidue", *_BIG, "--epsilon", "nan"),
    ("search", "--target", "nonresidue", *_BIG, "--scan-limit", "100000001"),
    ("search", "--target", "nonresidue", *_BIG, "--scan-limit", "-5"),
    ("count", "--k", "0", *_BIG, "--x", "100"),
    ("count", "--k", "-2", *_BIG, "--x", "100"),
    ("count", "--k", "0", *_BIG),
    ("count", *_BIG, "--x", "nan"),
    ("count", *_BIG, "--x", "inf"),
    ("count", *_BIG, "--x", "100000001"),
    ("reproduce", "nan"),
    ("expsum", "--p", "1000003"),
    ("expsum", "--p", "1000003", "--max-ratio-table"),
    ("expsum", "--p", "nan"),
    ("expsum", "--p", "-7"),
    ("expsum", "--p", "41", "--b", "0"),
    ("expsum", "--p", "41", "--b", "1", "--x-cutoff", "-3"),
    ("patterns", "--p", "-7"),
    ("patterns", "--p", "nan"),
    ("patterns", "--p", "41", "--x", "42"),
    ("patterns", "--p", "41", "--x", "-3"),
    ("patterns", "--p", "41", "--x", "1"),
    ("patterns", "--p", "10000019"),
    ("patterns", "--p", "10000019", "--x", "10000001"),
    ("sweep", "campaign = density\nk = 0\nprime_min = 1000\nprime_max = 1100"),
    ("sweep", "campaign = density\nk = -2\nprime_min = 1000\nprime_max = 1100"),
    ("sweep", "campaign = density\nk = nan"),
    ("sweep", "campaign = density\nprime_min = 2000\nprime_max = 1000"),
    ("sweep", "campaign = density\nprime_min = 1000\nprime_max = 1100\nx_rule = fixed:nan"),
    ("sweep", "campaign = density\nprime_min = 1000\nprime_max = 1100\nx_rule = fixed:inf"),
    ("sweep", "campaign = density\nprime_min = 1000\nprime_max = 1000000001"),
    ("sweep", "campaign = density\nprime_min = 1000\nprime_max = 1100\nx_rule = fixed:1000000001"),
    ("sweep", "campaign = density\nprime_min = 1000\nprime_max = 1100\nx_rule = fixed:-5"),
    ("sweep", "campaign = density\nprime_min = 1000\nprime_max = 1000000000"),
    ("sweep", "campaign = least_nonresidue\nprime_min = 2000\nprime_max = 1000"),
    ("sweep", "campaign = least_nonresidue\nprime_min = 100000\nprime_max = 100100\n"
              "prime_count = 1\nepsilon = nan"),
    ("sweep", "campaign = density\nprime_count = -1"),
    ("sweep", "campaign = density\nprime_min = 3\nprime_max = 20\nx_rule = bound"),
    ("sweep", "campaign = least_nonresidue\nprime_min = 10^^24"),
    ("sweep", "campaign = least_nonresidue\nprime_min = 10^5000"),
    ("sweep", "campaign = least_nonresidue\nprime_count = 2\nq_rule = fixed:0"),
    ("sweep", "campaign = least_nonresidue\nprime_count = 2\nq_rule = fixed:1"),
    ("sweep", "campaign = least_nonresidue\nprime_min = 1000\nprime_max = 1100\nprime_count = 3"),
    ("sweep", "campaign = expsum\np_list = 1000003"),
    ("sweep", "campaign = expsum\np_list = nan"),
    ("sweep", "campaign = patterns\np_list = 10000019"),
]


@pytest.mark.parametrize("argv", _BAD_INPUTS, ids=lambda argv: " ".join(
    a if len(a) < 200 else f"{a[:8]}...<{len(a)} characters>" for a in argv).replace("\n", "; "))
def test_bad_numeric_input_never_tracebacks(capsys, tmp_path, argv):
    if argv[0] == "sweep":
        cfg = tmp_path / "sweep.conf"
        cfg.write_text(f"{argv[1]}\nout_dir = {tmp_path}/r\n", encoding="utf-8")
        argv = ("sweep", "--config", str(cfg))
    code, _, err = run_cli(capsys, *argv)
    assert code in (EXIT_USAGE, EXIT_DOMAIN, EXIT_RESOURCE)
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()
