import hashlib
import json
from pathlib import Path

import pytest

from instanton import acceptance, cli
from instanton.acceptance import CheckResult
from instanton.cli import run
from instanton.floer import VerificationError

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden_cli"


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def load_schema(name):
    with open(SCHEMA_DIR / name) as fh:
        return json.load(fh)


def validator_for(name):
    import jsonschema
    from jsonschema import Draft202012Validator
    schema = load_schema(name)
    # poly.schema.json is referenced by the generator set schema
    try:
        from referencing import Registry, Resource
        registry = Registry().with_resources([
            (sname, Resource.from_contents(load_schema(sname)))
            for sname in ("poly.schema.json", "generator_set.schema.json",
                          "hilbert_report.schema.json", "eigen_report.schema.json")
        ])
        return Draft202012Validator(schema, registry=registry)
    except ImportError:
        store = {sname: load_schema(sname)
                 for sname in ("poly.schema.json", "generator_set.schema.json",
                               "hilbert_report.schema.json", "eigen_report.schema.json")}
        resolver = jsonschema.RefResolver(base_uri="", referrer=schema, store=store)
        return Draft202012Validator(schema, resolver=resolver)


def test_xi_json_output(capsys, tmp_path):
    code, out = run_cli(capsys, "xi", "--k", "2", "--n", "1", "--json",
                        "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == ["alpha", "beta", "gamma", "delta1"]
    coeffs = {tuple(t["exps"]): t["coeff"] for t in doc["terms"]}
    assert coeffs == {(2, 0, 0, 0): "1/2", (0, 1, 0, 0): "-1/2"}
    validator_for("poly.schema.json").validate(doc)


def _readme_examples():
    """The `floer` command lines of the README's "Command line" section, each
    without and with --json."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    for line in block.strip().splitlines():
        argv = [a for a in line.split()[1:] if a != "--json"]
        yield argv
        yield argv + ["--json"]


def _slug(argv):
    return "_".join(a.removeprefix("--").replace("/", "-") for a in argv)


@pytest.mark.parametrize("argv", list(_readme_examples()), ids=_slug)
def test_readme_examples_print_the_golden_bytes(capsys, tmp_path, argv):
    """Every README example, on a fresh cache dir, prints byte for byte the
    output stored in tests/golden_cli/ (recorded before the Poly products ran
    on integer numerators)."""
    code, out = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == (GOLDEN_DIR / f"{_slug(argv)}.out").read_text()


def test_every_golden_output_has_its_readme_example():
    names = {f"{_slug(argv)}.out" for argv in _readme_examples()}
    assert len(names) == 26
    assert names == {p.name for p in GOLDEN_DIR.iterdir()}


def test_jgen_text_contains_r1(capsys, tmp_path):
    code, out = run_cli(capsys, "jgen", "--g", "1", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "r_1 = omega + 1/2*delta1 - 1" in out
    assert out.count("=") == 4  # four generators


def test_jgen_json_schema_and_cache_identity(capsys, tmp_path):
    args = ("jgen", "--g", "1", "--json", "--cache-dir", str(tmp_path))
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)  # second run hits the cache
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    validator_for("generator_set.schema.json").validate(doc)
    cached = list(tmp_path.glob("jgen*.json"))
    assert len(cached) == 1


def test_no_cache_writes_nothing(capsys, tmp_path):
    code, _out = run_cli(capsys, "jgen", "--g", "1", "--json", "--no-cache",
                         "--cache-dir", str(tmp_path))
    assert code == 0
    assert list(tmp_path.glob("*.json")) == []


def test_hilbert_json_schema_and_exit(capsys, tmp_path):
    code, out = run_cli(capsys, "hilbert", "--g", "1", "--n", "1", "--source", "ptgn",
                        "--max-degree", "8", "--json", "--cache-dir", str(tmp_path))
    assert code == 0
    validator_for("hilbert_report.schema.json").validate(json.loads(out))


# sha256 of `floer igen --json` output, recorded before generator sets carried
# the flip-orbit marker, which is not part of the payload
IGEN_JSON = {("1", "3", "even"): "7c91f04b75bded17ea4f93de38a5539acfd9451251a18eeb2723f73330982e4f",
             ("0", "5", "odd"): "aee9aa9ffdee3a1b89f9cd5d504ee187e9604b743050dc01b170dc686c37dc97"}


@pytest.mark.parametrize("g, n, parity", sorted(IGEN_JSON))
def test_igen_json_bytes_are_pinned(capsys, g, n, parity):
    code, out = run_cli(capsys, "igen", "--g", g, "--n", n, "--parity", parity,
                        "--json", "--no-cache")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IGEN_JSON[(g, n, parity)]


def test_eigen_json_schema(capsys, tmp_path):
    code, out = run_cli(capsys, "eigen", "--g", "1", "--json",
                        "--cache-dir", str(tmp_path))
    assert code == 0
    validator_for("eigen_report.schema.json").validate(json.loads(out))


def test_solve_command(capsys, tmp_path):
    code, out = run_cli(capsys, "solve", "--g", "0", "--json",
                        "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["gens"]) == 4
    validator_for("generator_set.schema.json").validate(doc)


def test_solve_command_at_five_points(capsys, tmp_path):
    code, out = run_cli(capsys, "solve", "--g", "0", "--n", "5", "--json",
                        "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    validator_for("generator_set.schema.json").validate(doc)
    assert (doc["label"], len(doc["gens"])) == ("X_{0,5}", 16)
    assert [p.name for p in tmp_path.glob("*.json")] == ["solve_g0_n5.json"]


def test_solve_command_refuses_one_point(capsys, tmp_path):
    code = run(["solve", "--g", "0", "--n", "1", "--json", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_rho_methods_agree_up_to_branch(capsys, tmp_path):
    code1, out1 = run_cli(capsys, "rho", "--k", "2", "--r", "1", "--no-cache")
    code2, out2 = run_cli(capsys, "rho", "--k", "2", "--r", "1", "--method", "series",
                          "--no-cache")
    assert code1 == code2 == 0
    assert out1 == out2  # k even: branch invisible


def test_usage_errors_exit_two(capsys):
    code, _ = run_cli(capsys, "xi", "--k", "1", "--n", "2")
    assert code == 2
    code, _ = run_cli(capsys, "xi", "--k", "-1", "--n", "1")
    assert code == 2
    code, _ = run_cli(capsys, "rho", "--k", "1", "--r", "-1", "--no-cache")
    assert code == 2  # projection needs positive r
    code, _ = run_cli(capsys, "eigen", "--g", "0", "--no-cache")
    assert code == 2


def test_eigen_theta_zero_exits_two(capsys, tmp_path):
    code = run(["eigen", "--g", "1", "--theta", "0", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: theta must be a nonzero rational\n"


def test_verify_suite_exit_zero(capsys, tmp_path):
    code, out = run_cli(capsys, "verify", "--suite", "eigen", "--g-max", "1",
                        "--cache-dir", str(tmp_path))
    assert code == 0
    assert "[A2] PASS" in out


def test_verify_runs_the_genus_asked_for(capsys, tmp_path):
    code, out = run_cli(capsys, "verify", "--suite", "membership", "--g-max", "5",
                        "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.startswith("[A8] PASS - ") and out.endswith("; g=5:3 cofactors\n")


@pytest.mark.parametrize("argv,error", [
    (("eigen", "--g-max", "0"), "A2 has no case within g_max=0"),
    (("membership", "--g-max", "0"), "A8 has no case within g_max=0"),
    (("subleading", "--g-max", "0"), "A7 has no case within g_max=0"),
    (("poincare", "--g-max", "0", "--n-max", "1"), "A4 has no case within g_max=0, n_max=1"),
], ids=["eigen", "membership", "subleading", "poincare"])
def test_verify_limits_that_leave_a_criterion_no_case_exit_two(capsys, tmp_path, argv, error):
    """A limit that leaves a criterion nothing to check is bad input, not a
    PASS: one error line, nothing on stdout, exit 2."""
    code = run(["verify", "--suite", *argv, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {error}\n")


def test_verify_json_prints_one_document_of_records(capsys, monkeypatch):
    """Text lines or one JSON list of records in run order; the exit code is 1
    on a failed criterion either way."""
    monkeypatch.setitem(acceptance.SUITES, "rho", ["A13", "A5"])
    monkeypatch.setitem(acceptance._CHECKS, "A13", lambda: CheckResult("A13", True, "first"))
    monkeypatch.setitem(acceptance._CHECKS, "A5", lambda: CheckResult("A5", False, "second"))
    code, out = run_cli(capsys, "verify", "--suite", "rho", "--no-cache")
    assert (code, out) == (1, "[A13] PASS - first\n[A5] FAIL - second\n")
    code, out = run_cli(capsys, "verify", "--suite", "rho", "--json", "--no-cache")
    records = [{"criterion": "A13", "passed": True, "detail": "first"},
               {"criterion": "A5", "passed": False, "detail": "second"}]
    assert (code, out) == (1, cli.dump_json(records) + "\n")


RHO_SUITE = ("verify", "--suite", "rho")
A6_RECORDED = "[A6] PASS - rho convention branch: negate_omega (recorded)\n"


@pytest.mark.parametrize("record", ['{"branch": "negate', '["negate_omega"]',
                                    '{"branch": "negate_omega"}',
                                    '{"key": "jgen_g1_plus_local0", "payload": {}}'],
                         ids=["corrupt", "list", "unversioned", "foreign"])
def test_unusable_rho_record_is_rewritten(capsys, tmp_path, record):
    path = tmp_path / "rho_convention.json"
    path.write_text(record)
    code, out = run_cli(capsys, *RHO_SUITE, "--cache-dir", str(tmp_path))
    assert code == 0
    assert A6_RECORDED in out
    assert cli.Cache(str(tmp_path)).get("rho_convention") == {"branch": "negate_omega"}
    code, out = run_cli(capsys, *RHO_SUITE, "--cache-dir", str(tmp_path))
    assert code == 0
    assert "[A6] PASS - rho convention branch: negate_omega\n" in out


def test_verify_no_cache_records_nothing(capsys, tmp_path):
    code, out = run_cli(capsys, *RHO_SUITE, "--no-cache", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "[A6] PASS - rho convention branch: negate_omega\n" in out
    assert list(tmp_path.iterdir()) == []


def test_verify_suite_choices_are_the_acceptance_suites(capsys):
    """cli lists the suite names itself, so that no other command loads
    acceptance; they are acceptance.SUITES's names, and an unknown one is a
    usage error that lists them."""
    assert list(cli.SUITE_NAMES) == sorted(acceptance.SUITES)
    assert run(["verify", "--suite", "bogus"]) == 2
    assert ("invalid choice: 'bogus' (choose from 'all', 'eigen', 'local', 'membership', "
            "'poincare', 'rho', 'subleading')") in capsys.readouterr().err


def test_default_cache_dir_is_under_home(monkeypatch, tmp_path):
    monkeypatch.delenv("FLOER_CACHE_DIR", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    assert cli.default_cache_dir() == str(tmp_path / ".cache" / "floer")


def test_env_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FLOER_CACHE_DIR", str(tmp_path / "envcache"))
    code, _out = run_cli(capsys, "jgen", "--g", "0", "--json")
    assert code == 0
    assert list((tmp_path / "envcache").glob("jgen*.json"))


def test_timestamps_flag_changes_output(capsys, tmp_path):
    args = ("jgen", "--g", "1", "--json", "--cache-dir", str(tmp_path))
    _c1, out1 = run_cli(capsys, *args)
    _c2, out2 = run_cli(capsys, *args, "--timestamps")
    assert out1 != out2
    assert "timestamp" in json.loads(out2)


EIGEN_ARGS = ("eigen", "--g", "2", "--json")


def _computed_on_hit(*_args, **_kwargs):
    raise RuntimeError("computed on a cache hit")


def test_hit_skips_compute_and_prints_miss_bytes(capsys, tmp_path, monkeypatch):
    args = EIGEN_ARGS + ("--cache-dir", str(tmp_path))
    code1, miss = run_cli(capsys, *args)
    monkeypatch.setattr(cli, "eigen_verify", _computed_on_hit)
    code2, hit = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert hit == miss


def test_hilbert_exit_code_comes_from_cached_match(capsys, tmp_path, monkeypatch):
    args = ("hilbert", "--g", "1", "--n", "1", "--source", "ptgn", "--max-degree", "6",
            "--json", "--cache-dir", str(tmp_path))
    code, out = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    payload["match"] = False
    cli.Cache(str(tmp_path)).put("hilbert_g1_n1_ptgn_d6", payload)
    monkeypatch.setattr(cli, "hilbert_compare", _computed_on_hit)
    code, out = run_cli(capsys, *args)
    assert code == 1
    assert json.loads(out)["match"] is False


@pytest.mark.parametrize("spoil", ["foreign_key", "stale_version", "corrupt"])
def test_invalid_cache_entry_is_a_miss(capsys, tmp_path, spoil):
    args = EIGEN_ARGS + ("--cache-dir", str(tmp_path))
    _code, fresh = run_cli(capsys, *args)
    (path,) = tmp_path.glob("eigen*.json")
    good = path.read_text()
    entry = json.loads(good)
    entry["payload"]["subspace_dim"] = 999
    if spoil == "foreign_key":
        entry["key"] = "eigen_g2_minus_theta1"
        path.write_text(json.dumps(entry))
    elif spoil == "stale_version":
        entry["tool_version"] = "0.0.0-old"
        path.write_text(json.dumps(entry))
    else:
        path.write_text(good[: len(good) // 2])
    code, out = run_cli(capsys, *args)
    assert code == 0
    assert out == fresh
    assert path.read_text() == good  # rewritten by the recompute
    assert list(tmp_path.glob("*.tmp")) == []


def test_verification_failure_exits_one(capsys, tmp_path, monkeypatch):
    def drift(*_a, **_k):
        raise VerificationError("sub-leading system is infeasible (convention drift)")
    monkeypatch.setattr(cli, "solve_subleading", drift)
    code = run(["solve", "--g", "1", "--json", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert "verification failure" in capsys.readouterr().err
    assert list(tmp_path.glob("*.json")) == []


# one minimal valid argument list per subcommand
_COMMAND_ARGS = {
    "xi": ("xi", "--k", "2", "--n", "1"),
    "rho": ("rho", "--k", "2", "--r", "1"),
    "igen": ("igen", "--g", "0", "--n", "1", "--parity", "even"),
    "jgen": ("jgen", "--g", "1"),
    "hilbert": ("hilbert", "--g", "0", "--n", "1", "--source", "ptgn", "--max-degree", "4"),
    "eigen": ("eigen", "--g", "1"),
    "solve": ("solve", "--g", "0"),
    "verify": ("verify", "--suite", "rho"),
}
_FLAG_READERS = {"--alpha-coords": {"xi", "igen", "jgen", "solve"},
                 "--timestamps": {"igen", "jgen", "hilbert", "eigen", "solve"}}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for flag, readers in _FLAG_READERS.items()
    for command in _COMMAND_ARGS if command not in readers])
def test_flag_a_subcommand_does_not_read_exits_two(capsys, command, flag):
    """A flag is offered only to the subcommands that read it; anywhere else
    it is a usage error, caught before anything is computed."""
    code = run([*_COMMAND_ARGS[command], flag, "--no-cache"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"unrecognized arguments: {flag}" in captured.err


@pytest.mark.parametrize("command,flag", [
    (command, flag) for flag, readers in _FLAG_READERS.items() for command in sorted(readers)])
def test_flag_is_offered_to_the_subcommands_that_read_it(command, flag):
    args = cli.build_parser().parse_args([*_COMMAND_ARGS[command], flag])
    assert args.command == command
    assert getattr(args, flag[2:].replace("-", "_")) is True


def test_benchmark_cli_commands_still_parse(tmp_path):
    """Every command of the benchmark's cli workload, for every theta it draws."""
    import importlib.util
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    parser = cli.build_parser()
    for theta in bench.THETAS:
        commands = bench.cli_commands(theta)
        assert len(commands) == 10
        for _cid, args in commands:
            parsed = parser.parse_args([*args, "--cache-dir", str(tmp_path)])
            assert parsed.command == args[0]
