"""Command line surface: support rendering, verify sweeps, roundtrip."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quiverdias import families
from quiverdias.cli import main
from quiverdias.families import n_support, s_support
from quiverdias.render import render_ascii, render_svg
from quiverdias.reports import read_report_file
from quiverdias.serialize import dumps_support, loads_support

# --- support ------------------------------------------------------------------


def test_support_ascii_triangle(capsys):
    assert main(["support", "--family", "n", "--n", "6", "--format", "ascii"]) == 0
    out = capsys.readouterr().out
    assert out.count("#") == 21
    rows = out.splitlines()[1:]
    assert len(rows) == 6
    # lower-triangular staircase
    assert [row.count("#") for row in rows] == [1, 2, 3, 4, 5, 6]


def test_support_ascii_slices(capsys):
    assert main(["support", "--family", "s", "--m", "6", "--i", "3", "--n", "4",
                 "--format", "ascii"]) == 0
    out = capsys.readouterr().out
    assert out.count("#") == 126
    assert sum(line.startswith("slice ") for line in out.splitlines()) == 4


def test_support_text_roundtrips_through_library(capsys):
    assert main(["support", "--family", "s", "--m", "2", "--i", "1", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert loads_support(out) == s_support(2, 1, 2)


def test_support_interval_families(capsys):
    assert main(["support", "--family", "projective", "--n", "5", "--j", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] == [[2], [3], [4], [5]]


def test_support_bad_parameters_exit_2(capsys):
    assert main(["support", "--family", "s", "--m", "0", "--i", "1", "--n", "1"]) == 2
    assert "1 <= i <= m" in capsys.readouterr().err


def test_support_missing_parameter_exit_2(capsys):
    assert main(["support", "--family", "s", "--m", "2", "--n", "2"]) == 2
    assert "--i" in capsys.readouterr().err


def test_support_too_large_to_allocate_exit_2(capsys, monkeypatch):
    # a family too large for memory is refused like any bad parameter (exit
    # 2, not 1, which means a failed identity); s_support is replaced by a
    # stand-in, so nothing is allocated
    def unallocatable(m, i, n):
        raise MemoryError("Unable to allocate 1.82 TiB for an array")

    monkeypatch.setattr(families, "s_support", unallocatable)
    argv = ["support", "--family", "s", "--m", "1000000", "--i", "1", "--n", "1000000"]
    assert main(argv + ["--format", "ascii"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 1.82 TiB for an array\n"


def test_support_svg(capsys):
    assert main(["support", "--family", "n", "--n", "6", "--format", "svg"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg")
    assert out.count('class="cell"') == 21


def test_support_out_file(tmp_path):
    target = tmp_path / "s.svg"
    assert main(["support", "--family", "s", "--m", "6", "--i", "3", "--n", "4",
                 "--format", "svg", "--out", str(target)]) == 0
    assert target.read_text().count('class="cell"') == 126


def test_render_rejects_higher_arity():
    from quiverdias.families import reference_commutativity_set

    quad = reference_commutativity_set(2, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        render_ascii(quad)
    with pytest.raises(ValueError):
        render_svg(quad)


# --- verify ---------------------------------------------------------------------


def test_verify_cooperad_exit_0(tmp_path, capsys):
    assert main(["verify", "--suite", "cooperad", "--max", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    records = read_report_file(tmp_path / "verify-cooperad.jsonl")
    assert records[0]["record"] == "header"
    assert records[-1]["record"] == "summary"
    assert records[-1]["failed"] == 0
    assert records[-1]["total"] == len(records) - 2


def test_verify_summary_counts_match_reports(tmp_path):
    main(["verify", "--suite", "anticyclic", "--max", "3", "--out", str(tmp_path)])
    records = read_report_file(tmp_path / "verify-anticyclic.jsonl")
    reports = [r for r in records if r["record"] == "report"]
    summary = records[-1]
    assert summary["passed"] == sum(r["passed"] for r in reports)
    assert summary["total"] == len(reports)


def test_verify_deterministic_across_workers(tmp_path, monkeypatch):
    # two real workers even on a one-core machine, where the pool is clamped
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    # oracle workers each keep their own certified tensor sides
    for suite in ("cooperad", "oracle"):
        d1, d2 = tmp_path / suite / "w1", tmp_path / suite / "w2"
        assert main(["verify", "--suite", suite, "--max", "2", "--out", str(d1)]) == 0
        assert main(["verify", "--suite", suite, "--max", "2", "--workers", "2",
                     "--out", str(d2)]) == 0
        name = f"verify-{suite}.jsonl"
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("suite, max_m, digest", [
    ("cooperad", "6", "4466aa77f3917dc2e3bd9fb1043151a9e682bc161cb58439e077979610682509"),
    ("all", "3", "f3ddbb8e0a86ff37effb3a5da3544051b8fcc8af7cb770131f51a3d3861e875c"),
])
def test_grouped_sweep_bytes_are_pinned_with_one_and_two_workers(tmp_path, monkeypatch, suite,
                                                                  max_m, digest):
    # the pool takes whole verifier groups; the bytes are those of the
    # per-check sweep that these hashes were first pinned from
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["verify", "--suite", suite, "--max", max_m, "--workers", workers,
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / f"verify-{suite}.jsonl").read_bytes()).hexdigest() == digest


def test_verify_deterministic_across_runs(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    main(["verify", "--suite", "oracle", "--max", "2", "--out", str(d1)])
    main(["verify", "--suite", "oracle", "--max", "2", "--out", str(d2)])
    assert (d1 / "verify-oracle.jsonl").read_bytes() == (d2 / "verify-oracle.jsonl").read_bytes()


def test_oracle_report_bytes_are_pinned(tmp_path):
    # the k=3 oracle sweep, 378 checks over GF(32003) and over Q; the hash is
    # the one the benchmark pins for its oracle-k3 workload
    assert main(["verify", "--suite", "oracle", "--max", "3", "--oracle-max", "3",
                 "--out", str(tmp_path)]) == 0
    assert (
        hashlib.sha256((tmp_path / "verify-oracle.jsonl").read_bytes()).hexdigest()
        == "f4afe9a49591bbcae13e0cc1813edc6c0b74cc31df0479f475e576437b065b06"
    )



def test_rational_oracle_report_bytes_are_pinned(tmp_path):
    # the k=3 oracle sweep over Q alone, 189 checks: the rational path of the
    # tensor body and of the certificate
    assert main(["verify", "--suite", "oracle", "--max", "3", "--oracle-max", "3",
                 "--field", "rational", "--out", str(tmp_path)]) == 0
    assert (
        hashlib.sha256((tmp_path / "verify-oracle.jsonl").read_bytes()).hexdigest()
        == "b7e3179d973b9389afac0465cdce41db39ab32529c4515f6326362902965f380"
    )

def test_support_report_bytes_are_pinned(tmp_path):
    # the support and class layers at the sizes the benchmark runs (the hashes
    # it pins for its cooperad-m4 and anticyclic-m7 workloads), and the class
    # layer at --max 10, where nabla_k0 contracts over 19 stacked projectives
    pinned = [
        ("cooperad", "4", "27d3375934127a1b7314052c72b40cddbc807c66b6beb5588bab4b8a26646c48"),
        ("anticyclic", "7", "3eb2b81123d0c746bdcfe998773ab75c563d637aabce9f069084949388f12214"),
        ("anticyclic", "10", "db5bea7973eb128fdda5146ed12a7627eb38de4e6a06eab89097f900f0766aa5"),
    ]
    for suite, max_m, digest in pinned:
        assert main(["verify", "--suite", suite, "--max", max_m, "--out", str(tmp_path)]) == 0
        report = tmp_path / f"verify-{suite}.jsonl"
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_verify_env_var_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QUIVERDIAS_OUT", str(tmp_path))
    assert main(["verify", "--suite", "anticyclic", "--max", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "verify-anticyclic.jsonl").exists()


def test_verify_without_flags_runs_the_default_config(tmp_path, monkeypatch, capsys):
    import quiverdias.cli as cli
    from quiverdias.sweeps import SweepConfig

    configs = []
    monkeypatch.setattr(cli, "run_sweep", lambda config: configs.append(config) or iter(()))
    monkeypatch.setenv("QUIVERDIAS_OUT", str(tmp_path))
    assert main(["verify"]) == 0
    capsys.readouterr()
    assert configs == [SweepConfig()]


def test_verify_failed_identity_exit_1(tmp_path, capsys, monkeypatch):
    import quiverdias.sweeps as sweeps
    from quiverdias.reports import Report, Witness

    def broken(m, n):
        return Report("border", {"m": m, "n": n}, 1, 1,
                      [Witness("right_vs_left", (1, 1, 1), "left only")])

    monkeypatch.setitem(sweeps._VERIFIERS, "border", broken)
    assert main(["verify", "--suite", "anticyclic", "--max", "1", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "FAIL border" in out
    records = read_report_file(tmp_path / "verify-anticyclic.jsonl")
    failing = [r for r in records if r["record"] == "report" and not r["passed"]]
    assert failing and failing[0]["witnesses"][0]["where"] == [1, 1, 1]


@pytest.mark.parametrize("earlier", [False, True])
def test_verify_crash_leaves_no_partial_report(tmp_path, capsys, monkeypatch, earlier):
    import quiverdias.sweeps as sweeps

    path = tmp_path / "verify-anticyclic.jsonl"
    if earlier:
        assert main(["verify", "--suite", "anticyclic", "--max", "2", "--out", str(tmp_path)]) == 0
        before = path.read_bytes()
    border = sweeps._VERIFIERS["border"]
    calls = []

    def crash_on_third(**params):
        calls.append(params)
        if len(calls) == 3:
            raise RuntimeError("seeded crash")
        return border(**params)

    monkeypatch.setitem(sweeps._VERIFIERS, "border", crash_on_third)
    with pytest.raises(RuntimeError, match="seeded crash"):
        main(["verify", "--suite", "anticyclic", "--max", "2", "--out", str(tmp_path)])
    assert len(calls) == 3
    # no part file, and no report unless an earlier one, byte for byte
    assert [p.name for p in tmp_path.iterdir()] == ([path.name] if earlier else [])
    if earlier:
        assert path.read_bytes() == before


def test_verify_config_error_exit_2(capsys):
    assert main(["verify", "--suite", "oracle", "--max", "2", "--oracle-max", "5"]) == 2
    assert "oracle max" in capsys.readouterr().err
    assert main(["verify", "--max", "0"]) == 2
    assert main(["verify", "--field", "prime", "--prime", "10", "--max", "2"]) == 2
    # checked for every suite, also those that never build a field
    capsys.readouterr()
    for suite in ("cooperad", "anticyclic"):
        assert main(["verify", "--suite", suite, "--prime", "10", "--max", "2"]) == 2
        assert "modulus 10 is not prime" in capsys.readouterr().err


def test_verify_negative_bound_exit_2(capsys, tmp_path):
    for flag, name in (("--max-n", "max n"), ("--max-p", "max p"), ("--oracle-max", "oracle max")):
        assert main(["verify", "--max", "2", flag, "-1", "--out", str(tmp_path)]) == 2
        assert f"{name} must be nonnegative (0: default), got -1" in capsys.readouterr().err
    # 0 is the default: same as --max
    assert main(["verify", "--suite", "anticyclic", "--max", "2", "--max-n", "0",
                 "--out", str(tmp_path)]) == 0
    assert "all passed" in capsys.readouterr().out


def test_verify_unusable_out_refused_before_the_sweep(tmp_path, capsys, monkeypatch):
    def never(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("quiverdias.cli.run_sweep", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["verify", "--suite", "oracle", "--max", "2", "--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_huge_prime_refused_exit_2(capsys):
    # refused before any primality test: trial division would not finish
    assert main(["verify", "--max", "1", "--prime", str(2**61 - 1)]) == 2
    assert "2**31" in capsys.readouterr().err


# --- roundtrip -------------------------------------------------------------------


def test_roundtrip_canonical_is_identity(tmp_path, capsys):
    path = tmp_path / "n3.json"
    text = dumps_support(n_support(3))
    path.write_text(text)
    assert main(["roundtrip", str(path)]) == 0
    assert capsys.readouterr().out == text


def test_roundtrip_canonicalizes_shuffled_points(tmp_path, capsys):
    doc = {
        "axes": [{"len": 3, "polarity": "op"}, {"len": 3, "polarity": "plain"}],
        "points": [[3, 1], [1, 1], [2, 1], [3, 1]],
    }
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(doc))
    assert main(["roundtrip", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["points"] == [[1, 1], [2, 1], [3, 1]]


def test_roundtrip_corrupt_field_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"axes": [{"len": 0, "polarity": "plain"}], "points": []}')
    assert main(["roundtrip", str(path)]) == 2
    assert "axes[0].len" in capsys.readouterr().err


def test_roundtrip_parse_error_has_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"axes": [\n  {]}\n')
    assert main(["roundtrip", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_roundtrip_missing_file_exit_2(tmp_path):
    assert main(["roundtrip", str(tmp_path / "missing.json")]) == 2


# --- console entry point -----------------------------------------------------------


def test_installed_module_invocation():
    # the child does not see the path pytest adds to its own sys.path
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "quiverdias.cli", "support", "--family", "n", "--n", "2",
         "--format", "ascii"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("#") == 3
