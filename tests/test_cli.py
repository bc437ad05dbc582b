"""The leakward command line, exercised in-process."""

import json
from collections import Counter
from pathlib import Path

import pytest

import leakward.pipeline
from helpers import keys_taken
from leakward import cfg as C
from leakward import syntax as sx
from leakward.cli import main
from leakward.interp import ValidationVerdict
from leakward.libspec import load_library_spec
from leakward.pipeline import run_pipeline

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_LIB = str(CORPUS / "minij.libspec")

CLEAN = 'class A {\n  static void main() {\n    Socket s = new Socket();\n    s.close();\n  }\n}\n'
LEAKY = 'class A {\n  static void main() {\n    Socket s = new Socket();\n    s.send("x");\n  }\n}\n'

LIBSPEC = """resource Socket {
  must_call: [close];
  method Socket() -> void;
  method close() -> void;
  method send(notowning) -> void;
}
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "lib.libspec").write_text(LIBSPEC)
    (tmp_path / "clean.mj").write_text(CLEAN)
    (tmp_path / "leaky.mj").write_text(LEAKY)
    return tmp_path


def test_check_exit_codes_and_json(workdir, capsys):
    assert main(["check", str(workdir / "clean.mj"), "--libspec", str(workdir / "lib.libspec")]) == 0
    code = main(["check", str(workdir / "leaky.mj"), "--libspec", str(workdir / "lib.libspec"), "--json"])
    assert code == 1
    out = capsys.readouterr().out
    data = json.loads(out[out.index("[") :])
    assert data and data[0]["kind"] == "UnsatisfiedObligation"
    assert set(data[0]) == {"id", "kind", "file", "line", "resourceClass", "message", "descriptor"}


def test_check_dump_cfg(workdir):
    outdir = workdir / "dots"
    main(
        [
            "check",
            str(workdir / "leaky.mj"),
            "--libspec",
            str(workdir / "lib.libspec"),
            "--dump-cfg",
            str(outdir),
        ]
    )
    dots = list(outdir.glob("*.dot"))
    assert dots and "digraph" in dots[0].read_text()


def test_infer_writes_spec_json(workdir, capsys):
    src = """class W {
  private Socket s;

  W() {
    s = new Socket();
  }
  void close() {
    s.close();
  }
}
class M {
  static void main() {
    W w = new W();
  }
}
"""
    (workdir / "wrap.mj").write_text(src)
    out_path = workdir / "specs.json"
    assert main(["infer", str(workdir / "wrap.mj"), "--libspec", str(workdir / "lib.libspec"), "-o", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["classes"]["W"]["mustCall"] == ["close"]
    assert data["fields"]["W.s"] == "owning"
    assert data["ensures"]["W.close"] == [{"field": "s", "methods": ["close"]}]


def _wrapper_file(main_class: str, finalizer: str) -> str:
    """A wrapper `W` around a Socket, closed by `finalizer`, and a main that disposes of one."""
    return (
        f"class W {{\n  private Socket s;\n\n  W() {{\n    s = new Socket();\n  }}\n"
        f"  void {finalizer}() {{\n    s.close();\n  }}\n}}\n"
        f"class {main_class} {{\n  static void main() {{\n    W w = new W();\n    w.{finalizer}();\n  }}\n}}\n"
    )


def test_infer_rejects_a_file_whose_class_conflicts(workdir, capsys):
    for name, main_class, finalizer in (("a.mj", "A", "close"), ("b.mj", "B", "stop"), ("c.mj", "C", "close")):
        (workdir / name).write_text(_wrapper_file(main_class, finalizer))
    files = [str(workdir / name) for name in ("a.mj", "b.mj", "c.mj")]
    lib, specs = str(workdir / "lib.libspec"), str(workdir / "s.json")
    assert main(["infer", *files, "--libspec", lib, "-o", specs]) == 4
    err = capsys.readouterr().err
    assert err.splitlines() == ["b.mj: AnnotationConflict: class W: inferred specs differ from those of a.mj"]
    # b.mj is left out whole; c.mj's identical W merges
    data = json.loads((workdir / "s.json").read_text())
    assert data["classes"] == {"W": {"mustCall": ["close"]}} and "W.stop" not in data["ensures"]
    assert main(["check", files[0], files[2], "--libspec", lib, "--specs", specs]) == 0


def test_infer_lowers_each_member_once_per_file(workdir, monkeypatch):
    (workdir / "a.mj").write_text(_wrapper_file("A", "close"))
    (workdir / "c.mj").write_text(_wrapper_file("C", "close"))
    lowered = Counter()
    original = C.lower

    def counting(program, cls, meth, *rest):
        lowered[(program.source_name, cls.name, sx.member_key(meth))] += 1
        return original(program, cls, meth, *rest)

    monkeypatch.setattr(C, "lower", counting)
    files = [str(workdir / "a.mj"), str(workdir / "c.mj")]
    assert main(["infer", *files, "--libspec", str(workdir / "lib.libspec"), "-o", str(workdir / "s.json")]) == 0
    assert {f for f, _c, _m in lowered} == {"a.mj", "c.mj"}
    assert set(lowered.values()) == {1}


def test_explain_escape_lowers_the_method_once(monkeypatch, capsys):
    lowered = Counter()
    original = C.lower

    def counting(program, cls, meth, *rest):
        lowered[f"{cls.name}.{sx.member_key(meth)}"] += 1
        return original(program, cls, meth, *rest)

    monkeypatch.setattr(C, "lower", counting)
    assert main(["explain-escape", str(CORPUS / "escape_field.mj"), "--site", "1", "--libspec", CORPUS_LIB]) == 0
    assert "site 1: new Socket in BoxMain.main" in capsys.readouterr().out
    assert lowered["BoxMain.main"] == 1


def test_run_reports_leaks(workdir, capsys):
    assert main(["run", str(workdir / "leaky.mj"), "--libspec", str(workdir / "lib.libspec")]) == 0
    out = capsys.readouterr().out
    data = json.loads(out[out.index("{") :])
    assert data["leaked"] == [1] and data["status"] == "Completed"


@pytest.mark.parametrize("mains", [0, 2])
def test_run_without_a_single_main_is_a_bad_file(workdir, capsys, mains):
    text = "".join(f"class C{i} {{\n  static void main() {{\n  }}\n}}\n" for i in range(mains)) or "class A {\n}\n"
    (workdir / "mains.mj").write_text(text)
    assert main(["run", str(workdir / "mains.mj"), "--libspec", str(workdir / "lib.libspec")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mains.mj: NoSingleMain: program must have exactly one static main, found {mains}\n"


def test_run_trace_shows_events(workdir, capsys):
    main(["run", str(workdir / "clean.mj"), "--libspec", str(workdir / "lib.libspec"), "--trace"])
    out = capsys.readouterr().out
    assert "[open] Socket@s1" in out and "[close] Socket@s1" in out


def test_explain_escape(workdir, capsys):
    (workdir / "esc.mj").write_text(
        "class Box {\n  static Socket kept;\n}\nclass M {\n  static void main() {\n    Socket s = new Socket();\n    Box.kept = s;\n  }\n}\n"
    )
    assert main(["explain-escape", str(workdir / "esc.mj"), "--site", "1", "--libspec", str(workdir / "lib.libspec")]) == 0
    out = capsys.readouterr().out
    assert "escapes: True" in out and "ToField" in out


def test_check_then_fix_flow(workdir, capsys):
    lib = str(workdir / "lib.libspec")
    main(["check", str(workdir / "leaky.mj"), "--libspec", lib, "--json"])
    out = capsys.readouterr().out
    warnings = out[out.index("[") :]
    (workdir / "warnings.json").write_text(warnings)
    fixdir = workdir / "fixes"
    assert (
        main(
            [
                "fix",
                str(workdir / "leaky.mj"),
                "--libspec",
                lib,
                "--warnings",
                str(workdir / "warnings.json"),
                "-o",
                str(fixdir),
            ]
        )
        == 0
    )
    patch = (fixdir / "leaky.mj.patch").read_text()
    assert "+    try {" in patch and "s.close();" in patch
    report = json.loads((fixdir / "fixreport.json").read_text())
    (wid,) = [w["id"] for w in json.loads(warnings)]
    assert report["leaky.mj"]["fixes"][wid] == {"state": "fixed", "detail": "TryFinallyWrap"}


def test_fix_records_a_stale_warning_as_no_ir_match(workdir, capsys):
    lib = str(workdir / "lib.libspec")
    main(["check", str(workdir / "leaky.mj"), "--libspec", lib, "--json"])
    out = capsys.readouterr().out
    (warning,) = json.loads(out[out.index("[") :])
    warning["descriptor"] = warning["descriptor"].rsplit("|", 1)[0] + "|7"  # no eighth `new Socket`
    (workdir / "stale.json").write_text(json.dumps([warning]))
    fixdir = workdir / "fixes"
    code = main(["fix", str(workdir / "leaky.mj"), "--libspec", lib, "--warnings", str(workdir / "stale.json"), "-o", str(fixdir)])
    assert code == 0
    report = json.loads((fixdir / "fixreport.json").read_text())["leaky.mj"]
    assert report["fixes"] == {warning["id"]: {"state": "unfixable", "detail": "NoIrMatch"}}
    assert report["iterations"] == 0 and (fixdir / "leaky.mj.patch").read_text() == ""

def test_transform_command(workdir, capsys):
    src = """class TempFileWriter {
  private Socket stream;

  TempFileWriter() {
    stream = new Socket();
  }
  void poke() {
    stream.send("x");
  }
}
class M {
  static void main() {
    TempFileWriter t = new TempFileWriter();
    t.poke();
  }
}
"""
    (workdir / "wrapme.mj").write_text(src)
    lib = str(workdir / "lib.libspec")
    main(["check", str(workdir / "wrapme.mj"), "--libspec", lib, "--json"])
    out = capsys.readouterr().out
    (workdir / "w.json").write_text(out[out.index("[") :])
    outdir = workdir / "xform"
    assert (
        main(
            [
                "transform",
                str(workdir / "wrapme.mj"),
                "--libspec",
                lib,
                "--warnings",
                str(workdir / "w.json"),
                "-o",
                str(outdir),
            ]
        )
        == 0
    )
    transformed = (outdir / "wrapme.mj").read_text()
    assert "implements AutoCloseable" in transformed and "public void close()" in transformed
    log = json.loads((outdir / "wrapme.mj.editlog.json").read_text())
    assert any(e["transform"] == "inject_finalizer" for e in log)


def test_pipeline_command_outputs(workdir, capsys):
    lib = str(workdir / "lib.libspec")
    outdir = workdir / "out"
    code = main(["pipeline", str(workdir), "--libspec", lib, "-o", str(outdir)])
    assert code == 0  # both programs end clean (leak fixed, clean untouched)
    assert (outdir / "report.json").exists()
    assert (outdir / "metrics.json").exists()
    summary = (outdir / "summary.txt").read_text()
    assert "Repair rate" in summary
    patched = (outdir / "patched" / "leaky.mj").read_text()
    assert "finally" in patched
    metrics = json.loads((outdir / "metrics.json").read_text())
    assert metrics["percent"] == 100


def test_pipeline_exit_code_unfixable(workdir):
    (workdir / "stuck.mj").write_text(
        "class Box {\n  static Socket kept;\n}\nclass M {\n  static void main() {\n    Socket s = new Socket();\n    Box.kept = s;\n  }\n}\n"
    )
    lib = str(workdir / "lib.libspec")
    outdir = workdir / "out2"
    code = main(["pipeline", str(workdir), "--libspec", lib, "-o", str(outdir)])
    assert code == 2


# --- a file that does not parse, lower or annotate fails alone -----------------

BAD = {
    "syntax": 'class A {\n  static void main() {\n    Socket s = ;\n  }\n}\n',
    "duplicate": "class A {\n}\nclass A {\n}\n",
    "lowering": "class A {\n  static void main() {\n    Socket s = q;\n  }\n}\n",
}


def _subcommand(command, workdir, capsys):
    """The arguments after the files for `command`, writing leaky.mj's warnings first."""
    lib = str(workdir / "lib.libspec")
    if command in ("transform", "fix"):
        main(["check", str(workdir / "leaky.mj"), "--libspec", lib, "--json"])
        out = capsys.readouterr().out
        (workdir / "w.json").write_text(out[out.index("[") :])
    return {
        "check": ["--libspec", lib],
        "infer": ["--libspec", lib, "-o", str(workdir / "s.json")],
        "transform": ["--libspec", lib, "--warnings", str(workdir / "w.json"), "-o", str(workdir / "out")],
        "fix": ["--libspec", lib, "--warnings", str(workdir / "w.json"), "-o", str(workdir / "out")],
        "run": ["--libspec", lib],
        "explain-escape": ["--site", "1", "--libspec", lib],
    }[command]


# `run` and `explain-escape` take one file; `run` does not lower, so the
# interpreter reports an unbound name as a status
BAD_FILE_CASES = [(c, k) for c in ("check", "infer", "transform", "fix", "explain-escape") for k in sorted(BAD)] + [
    ("run", k) for k in ("duplicate", "syntax")
]


@pytest.mark.parametrize("command, kind", BAD_FILE_CASES)
def test_bad_file_fails_alone(workdir, capsys, command, kind):
    (workdir / "bad.mj").write_text(BAD[kind])
    rest = _subcommand(command, workdir, capsys)
    single = command in ("run", "explain-escape")
    files = ["bad.mj"] if single else ["bad.mj", "leaky.mj"]
    code = main([command, *(str(workdir / f) for f in files), *rest])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.splitlines() == run_pipeline([("bad.mj", BAD[kind])], load_library_spec(LIBSPEC)).errors
    if single:
        assert captured.out == ""
    elif command == "check":
        assert "leaky.mj:3: [UnsatisfiedObligation]" in captured.out
    elif command == "infer":
        assert json.loads((workdir / "s.json").read_text())["classes"] == {}
    elif command == "transform":
        assert sorted(p.name for p in (workdir / "out").iterdir()) == ["leaky.mj", "leaky.mj.editlog.json"]
    else:
        report = json.loads((workdir / "out" / "fixreport.json").read_text())
        assert list(report) == ["leaky.mj"] and report["leaky.mj"]["validation"]["ok"]
        assert "finally" in (workdir / "out" / "leaky.mj.patch").read_text()


# key passes per subcommand on leaky.mj and a wrapper file (explain-escape:
# leaky.mj alone): one per file, and one more for leaky.mj once `fix` patches it
KEY_PASSES = {"check": 2, "infer": 2, "transform": 2, "fix": 3, "explain-escape": 1}


@pytest.mark.parametrize("command", sorted(KEY_PASSES))
def test_a_subcommand_takes_each_file_states_keys_once(workdir, capsys, monkeypatch, command):
    (workdir / "wrap.mj").write_text(_wrapper_file("M", "close"))
    rest = _subcommand(command, workdir, capsys)
    if command == "check":
        rest += ["--dump-cfg", str(workdir / "dots")]
    files = ["leaky.mj"] if command == "explain-escape" else ["leaky.mj", "wrap.mj"]
    taken = keys_taken(monkeypatch)
    main([command, *(str(workdir / f) for f in files), *rest])
    assert len(taken) == KEY_PASSES[command] and len(set(taken)) == len(taken)


def test_fix_validation_failure_wins_over_a_bad_file(workdir, capsys, monkeypatch):
    monkeypatch.setattr(leakward.pipeline, "validate_patch", lambda *a, **k: ValidationVerdict(False, ("Forced",)))
    (workdir / "bad.mj").write_text(BAD["syntax"])
    rest = _subcommand("fix", workdir, capsys)
    assert main(["fix", str(workdir / "bad.mj"), str(workdir / "leaky.mj"), *rest]) == 3
    fixes = json.loads((workdir / "out" / "fixreport.json").read_text())["leaky.mj"]["fixes"]
    assert [f["state"] for f in fixes.values()] == ["validation-failed"]


# --- infer, check --specs, transform and fix give the pipeline's results -------


@pytest.fixture(scope="module")
def pipeline_reports(tmp_path_factory):
    """report.json of `pipeline` on the corpus, with and without transforms."""
    out = tmp_path_factory.mktemp("pipeline")
    main(["pipeline", str(CORPUS), "--libspec", CORPUS_LIB, "-o", str(out / "xform")])
    main(["pipeline", str(CORPUS), "--libspec", CORPUS_LIB, "-o", str(out / "plain"), "--no-transforms"])
    return {kind: json.loads((out / kind / "report.json").read_text()) for kind in ("xform", "plain")}


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.mj")))
def test_cli_chain_is_the_pipeline(name, pipeline_reports, tmp_path, capsys):
    src = str(CORPUS / name)
    main(["infer", src, "--libspec", CORPUS_LIB, "-o", str(tmp_path / "s.json")])
    capsys.readouterr()
    main(["check", src, "--libspec", CORPUS_LIB, "--specs", str(tmp_path / "s.json"), "--json"])
    out = capsys.readouterr().out
    (tmp_path / "w.json").write_text(out[out.index("[") :])

    warnings = ["--libspec", CORPUS_LIB, "--warnings", str(tmp_path / "w.json")]
    assert main(["transform", src, *warnings, "-o", str(tmp_path / "xform")]) == 0
    edit_log = json.loads((tmp_path / "xform" / f"{name}.editlog.json").read_text())
    assert edit_log == pipeline_reports["xform"]["files"][name]["editLog"]

    plain = pipeline_reports["plain"]["files"][name]
    code = main(["fix", src, *warnings, "-o", str(tmp_path / "fix")])
    assert code == (0 if plain["validation"]["ok"] else 3)
    fixed = json.loads((tmp_path / "fix" / "fixreport.json").read_text())[name]
    assert fixed == {key: plain[key] for key in ("fixes", "validation", "iterations")}
