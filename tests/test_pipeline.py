"""Pipeline orchestration, CLI, dumps and their round-trips."""

import dataclasses
import hashlib
import json
import re
import subprocess
import sys

import pytest

from effc import cli, core, display, exeff, infer, noeff, pipeline, readers, skeleff, source
from effc.core import DirtClash, EffError, SkeletonClash, StuckTerm
from effc.traverse import VAR_CLASSES, alpha_eq
from conftest import CORPUS, CORPUS_BAD, GOLDEN, read_digests, subprocess_env, write_digests
from gen_helpers import program_texts

READERS = {
    "exeff": readers.read_exeff_comp,
    "skeleff": readers.read_skeleff_comp,
    "noeff": readers.read_noeff_term,
}
GENERATED_DUMPS = GOLDEN / "generated_dumps.sha256"


def test_compile_stages_re_typecheck(tmp_path):
    path = CORPUS / "p09_do_tick_tock.eff"
    for stage in pipeline.STAGES:
        art = pipeline.compile_text(path.read_text(), stage)
        assert art.exeff_term is not None
        if stage in ("skeleff", "noeff"):
            assert art.skeleff_term is not None
        if stage == "noeff":
            assert art.noeff_term is not None


# Per stage that re-typechecks its term: the module and name of a function
# the stage calls, a deliberately wrong version of it made from the right
# one, and the stage's message when the two disagree.
WRONG_RECHECKS = {
    "exeff": (
        infer,
        "infer_and_default",
        lambda right: lambda sig, comp: (core.CompType(core.T_INT, core.EMPTY_DIRT), *right(sig, comp)[1:]),
        "elaborated term does not re-typecheck at the inferred type",
    ),
    "skeleff": (
        skeleff,
        "typecheck_sk",
        lambda right: lambda env, t: core.SKEL_INT,
        "erased term does not re-typecheck at the erased type",
    ),
    "noeff": (
        noeff,
        "typecheck_noeff",
        lambda right: lambda env, t: core.T_INT,
        "elaborated pure term does not re-typecheck at the elaborated type",
    ),
}


@pytest.mark.parametrize("stage", list(WRONG_RECHECKS))
def test_compile_rejects_a_stage_that_does_not_re_typecheck(stage, monkeypatch):
    module, name, wrong, message = WRONG_RECHECKS[stage]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    with pytest.raises(core.TypecheckError, match=f"^{message}$"):
        pipeline.compile_text("return unit", "noeff")


def test_unknown_stage_and_backend_names_are_rejected():
    with pytest.raises(ValueError, match="^unknown stage 'core'$"):
        pipeline.compile_text("return unit", "core")
    with pytest.raises(ValueError, match="^unknown backend 'core'$"):
        pipeline.run_text("return unit", "core")
    with pytest.raises(ValueError, match="^unknown dump stage 'core'$"):
        pipeline.dump_stage(pipeline.compile_text("return unit"), "core")


def test_observations_unwrap_returns_and_need_a_ground_result():
    assert pipeline.observe_noeff(noeff.MReturn(noeff.MReturn(exeff.EUnit()))) == "return unit"
    x = core.TermVar(0, "x")
    fn = exeff.EAbs(x, core.T_UNIT, exeff.CReturn(exeff.EVar(x)))
    with pytest.raises(EffError, match="^observation requires a ground result type$"):
        pipeline.observe_exeff(exeff.CReturn(fn))


def test_the_harness_reports_a_non_result_that_cannot_step(monkeypatch):
    steps = [exeff.step_comp]  # the first step is taken, the second is not
    monkeypatch.setattr(exeff, "step_comp", lambda term: steps.pop()(term) if steps else None)
    report = pipeline.differential_check_text("do x <- return unit in do y <- return x in return y")
    assert not report.agreement
    assert report.failure == "metatheory: step 2: well-typed non-result failed to step"


def test_compile_reports_polymorphic_scheme():
    schemes = pipeline.infer_text((CORPUS / "p06_running_f_id.eff").read_text()).session.let_schemes
    assert len(schemes) == 1
    from paper_examples import RunningExample
    from effc.traverse import alpha_eq

    assert alpha_eq(schemes[0][1], RunningExample().poly_type)


def test_ill_typed_programs_fail_with_expected_classes():
    expect = {
        "b01_dirtclash.eff": DirtClash,
        "b02_handler_as_fun.eff": SkeletonClash,
        "b03_occurs.eff": EffError,
        "b04_unbound.eff": EffError,
        "b05_unknown_op.eff": EffError,
        "b06_skeleton_clash.eff": SkeletonClash,
    }
    for name, exc in expect.items():
        with pytest.raises(exc):
            pipeline.compile_text((CORPUS_BAD / name).read_text(), "noeff")


def test_compile_runs_the_exeff_checker_once(corpus_paths, monkeypatch):
    # The one check at compile time records the derivation that NoEff
    # elaboration reads.
    outer, depth = [], [0]
    for name in ("typecheck_value", "typecheck_comp", "typecheck_coercion"):

        def counted(*args, _check=getattr(exeff, name), _name=name):
            if not depth[0]:
                outer.append(_name)
            depth[0] += 1
            try:
                return _check(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(exeff, name, counted)
    for path in corpus_paths:
        outer.clear()
        pipeline.compile_text(path.read_text(), "noeff")
        assert outer == ["typecheck_comp"], path.name


def test_run_return_unit_zero_steps():
    out = pipeline.run_text((CORPUS / "p01_return_unit.eff").read_text(), "exeff")
    assert str(out.observation) == "return unit"
    assert out.steps == 0


def test_run_unhandled_tick_observations_match():
    e = pipeline.run_text((CORPUS / "p08_tick_unhandled.eff").read_text(), "exeff")
    n = pipeline.run_text((CORPUS / "p08_tick_unhandled.eff").read_text(), "noeff")
    s = pipeline.run_text((CORPUS / "p08_tick_unhandled.eff").read_text(), "skeleff")
    assert str(e.observation) == str(n.observation) == str(s.observation) == "operation Tick"


def test_differential_corpus_agreement(corpus_paths):
    for path in corpus_paths:
        report = pipeline.differential_check_text(path.read_text())
        assert report.agreement, (path.name, report.failure)
        # The harness steps from the root; the evaluator refocuses.
        art = pipeline.compile_text(path.read_text(), "exeff")
        assert report.steps["exeff"] == exeff.eval_comp(art.exeff_term).steps, path.name


def test_corpus_expectations(corpus_paths):
    expected = json.loads((CORPUS / "expected.json").read_text())
    for path in corpus_paths:
        rep = pipeline.differential_check_text(path.read_text(), check_each_step=False)
        art = pipeline.compile_text(path.read_text(), "exeff")
        want = expected[path.name]
        assert display.show(display.canonicalize(art.cty)) == want["type"], path.name
        assert str(rep.observations["exeff"]) == want["observation"], path.name


def test_dump_roundtrips_alpha_equal(corpus_paths):
    # Dumping and re-reading any stage's representation is alpha-stable on
    # the whole corpus and on generated programs.
    for name, text in program_texts(corpus_paths):
        art = pipeline.compile_text(text, "noeff")
        for stage, read in READERS.items():
            dumped = pipeline.dump_stage(art, stage)
            back = read(dumped)
            assert display.show(display.canonicalize(back)) == dumped.strip(), (name, stage)


def generated_dump_digests(corpus_paths, count: int = 300) -> dict:
    """sha256 of `dump --stage S`, for S in exeff, noeff, skeleff and
    constraints, and of the let schemes as `effc infer` prints them, of each
    corpus program and of `count` generated programs, keyed by (program, S)."""
    out = {}
    for name, text in program_texts(corpus_paths, count):
        art = pipeline.compile_text(text, "noeff")
        dumps = {stage: pipeline.dump_stage(art, stage) for stage in ("exeff", "noeff", "skeleff")}
        outcome = pipeline.infer_text(text)
        dumps["constraints"] = pipeline.dump_constraints(outcome)
        dumps["schemes"] = "".join(
            f"let {var} : {display.show(display.canonicalize(scheme))}\n"
            for var, scheme in outcome.session.let_schemes
        )
        for stage, dump in dumps.items():
            out[name, stage] = hashlib.sha256(dump.encode()).hexdigest()
    return out


def test_generated_dumps_match_golden(corpus_paths):
    # Generated programs reach dirt application, qualified coercions and
    # handler bridging more often than the corpus, whose NoEff terms are
    # pinned by the trace digests.  The constraint dumps and let schemes pin
    # inference itself: its fresh variables, its solution and what each let
    # generalizes.  Rewrite the file with `write_generated_dump_digests()`
    # only when a change to the terms is meant.
    assert generated_dump_digests(corpus_paths) == read_digests(GENERATED_DUMPS)


def write_generated_dump_digests() -> None:
    write_digests(GENERATED_DUMPS, generated_dump_digests(sorted(CORPUS.glob("*.eff"))))


def test_trace_steps_read_back_alpha_equal(corpus_paths):
    # Substitution duplicates binders, so a step can bind one name twice: each
    # binder must reach over its own scope only.
    c = readers.read_skeleff_comp("do a <- (do a <- return 1 in return a) in return a")
    assert c.second.val.var is c.var
    for path in corpus_paths:
        for backend, read in READERS.items():
            trace = pipeline.run_text(path.read_text(), backend, keep_trace=True).trace
            for i, step in enumerate(trace[:60]):
                back = read(display.show(display.canonicalize(step)))
                assert alpha_eq(back, step), (path.name, backend, i)


def test_keyword_named_variables_round_trip():
    # Words of the dump notation are legal surface variable names; canonical
    # renaming keeps them apart from the keywords.
    words = ("empty", "skfun", "tyfun", "difun", "cofun", "all", "sk", "ty", "di", "co")
    words += ("comp", "unsafe", "hand2fun", "fun2hand")
    # Names spelled like a token class of the reader: an integer, an
    # operation, or a variable of each sort.
    words += ("int", "op", "s", "a", "d", "w", "x")
    for word in words:
        text = f"let {word} = fun y -> return y in do r <- {word} {word} in (fun {word} -> return {word}) r"
        art = pipeline.compile_text(text, "noeff")
        for stage, read in READERS.items():
            back = read(pipeline.dump_stage(art, stage))
            assert alpha_eq(back, getattr(art, f"{stage}_term")), (word, stage)


def test_every_node_class_has_a_notation_entry():
    hand_written = {core.Dirt}
    classes = [
        cls
        for mod in (core, exeff, skeleff, noeff)
        for cls in vars(mod).values()
        if isinstance(cls, type)
        and cls.__module__ == mod.__name__
        and cls in core.NODES
        and cls not in (core.Span, core.OpSig)  # not part of any dump
    ]
    assert len(classes) == 63
    for cls in classes:
        assert cls in display.NOTATION or cls in hand_written, cls.__name__
        if cls in display.NOTATION and cls not in VAR_CLASSES:  # variables print their names
            level, template = display.NOTATION[cls]
            named = {name for _, name, _ in display._template(template) if name is not None}
            fields = {f.name for f in dataclasses.fields(cls)}
            # An `all` group binder's body is the rest of the group.
            assert named == fields - ({"body"} if level is display.ALL else set()), cls.__name__


def test_show_rejects_unregistered_classes():
    class Opaque:
        pass

    @dataclasses.dataclass(frozen=True)
    class Unknown:
        weight: float

    for node in (Opaque(), Unknown(1.0), 1.5, exeff.CReturn(Unknown(1.0))):
        with pytest.raises(TypeError):
            display.show(node)


def test_deterministic_diagnostics():
    text = (CORPUS_BAD / "b01_dirtclash.eff").read_text()
    msgs = set()
    for _ in range(3):
        try:
            pipeline.compile_text(text, "noeff")
        except EffError as e:
            msgs.add(str(e))
    assert len(msgs) == 1


def test_solver_diagnostics_do_not_depend_on_the_hash_seed(tmp_path):
    # The clashing types print in dump notation, not as Python reprs, whose
    # operation sets iterate in an order the hash seed picks.
    path = tmp_path / "clash.eff"
    path.write_text(
        "effect Tick : Unit -> Unit\n"
        "effect Tock : Unit -> Unit\n"
        "effect Use2 : (Unit -> Unit!{Tick, Tock}) -> Unit\n"
        "Use2 (handler { return x -> return x })\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-m", "effc.cli", "check", str(path)],
            capture_output=True,
            text=True,
            env=subprocess_env(PYTHONHASHSEED=seed),
        )
        for seed in ("1", "3")
    ]
    assert [p.returncode for p in runs] == [1, 1]
    assert runs[0].stderr.startswith("error: 4:1: value types have incompatible shapes")
    assert runs[0].stderr == runs[1].stderr
    assert "frozenset" not in runs[0].stderr


# -- command-line interface ----------------------------------------------------------


def run_cli(*args):
    return cli.main(list(args))


def test_cli_check_ok(capsys):
    assert run_cli("check", str(CORPUS / "p01_return_unit.eff")) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_infer_prints_scheme(capsys):
    assert run_cli("infer", str(CORPUS / "p06_running_f_id.eff"), "--defaulted") == 0
    out = capsys.readouterr().out
    assert "let f : all s0 (a0 : s0) (a1 : s0) d0 d1 [a0 <= a1] [d0 <= d1]." in out
    assert "defaulted: Unit ! {}" in out


def test_cli_infer_defaulted_infers_once(corpus_paths, capsys, monkeypatch):
    # `--defaulted` prints what `infer` prints, from the same single
    # inference, then the defaulted type.
    expected = json.loads((CORPUS / "expected.json").read_text())
    calls = []
    infer_top = infer.infer_top

    def counted(*args):
        calls.append(args)
        return infer_top(*args)

    monkeypatch.setattr(infer, "infer_top", counted)
    for path in corpus_paths:
        assert run_cli("infer", str(path)) == 0
        plain = capsys.readouterr().out
        calls.clear()
        assert run_cli("infer", str(path), "--defaulted") == 0
        assert len(calls) == 1, path.name
        assert capsys.readouterr().out == plain + f"defaulted: {expected[path.name]['type']}\n"


def test_cli_run_backends(capsys):
    for backend in pipeline.BACKENDS:
        assert run_cli("run", str(CORPUS / "p12_handle_tick_discard.eff"), "--backend", backend) == 0
        assert "return 2" in capsys.readouterr().out


def test_cli_run_trace(capsys):
    assert run_cli("run", str(CORPUS / "p03_id_app.eff"), "--trace") == 0
    out = capsys.readouterr().out
    assert "[0]" in out and "return unit" in out


def test_cli_run_trace_every_backend(capsys):
    # Each backend prints its own trace, starting from its dumped term.
    path = str(CORPUS / "p11_handle_tick_resume.eff")
    for backend in pipeline.BACKENDS:
        assert run_cli("dump", path, "--stage", backend) == 0
        dumped = capsys.readouterr().out
        assert run_cli("run", path, "--backend", backend, "--trace") == 0
        *trace, last = capsys.readouterr().out.splitlines()
        steps = int(re.fullmatch(r"return unit \((\d+) steps\)", last).group(1))
        assert steps > 0
        assert [line.split(" ", 1)[0] for line in trace] == [f"[{i}]" for i in range(steps + 1)]
        assert trace[0] == f"[0] {dumped.rstrip()}", backend


def test_cli_exit_codes(capsys, tmp_path, monkeypatch):
    assert run_cli("check", str(CORPUS_BAD / "b01_dirtclash.eff")) == 1
    capsys.readouterr()
    assert run_cli("run", str(CORPUS / "p28_apply_twice.eff"), "--fuel", "1") == 2
    capsys.readouterr()
    # `diff` runs out of fuel on the core backend with the same code and message.
    assert run_cli("diff", str(CORPUS / "p19_handler_via_fun.eff"), "--fuel", "10") == 2
    assert capsys.readouterr().err == "error: evaluation exceeded 10 steps\n"
    assert run_cli("diff", str(CORPUS / "p15_get_constant.eff")) == 0
    capsys.readouterr()

    assert run_cli("check", str(tmp_path / "missing.eff")) == 1
    assert capsys.readouterr().err.startswith("error: cannot read ")

    # Any other exception that is not a diagnostic is an internal error too.
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(pipeline, "compile_text", broken)
    assert run_cli("check", str(CORPUS / "p02_return_int.eff")) == 4
    assert capsys.readouterr().err == "internal error: ValueError: boom\n"


def test_cli_usage_errors_are_rejected_input(capsys, tmp_path):
    # argparse's own exit code, 2, is that of runtime and fuel failure.
    unit = str(CORPUS / "p01_return_unit.eff")
    one_step = tmp_path / "one_step.eff"
    one_step.write_text("do x <- return unit in return x\n")
    cases = [
        (("dump", unit, "--stage", "bogus"), "effc dump: error: argument --stage: invalid choice: 'bogus'"),
        (("run", unit, "--fuel", "abc"), "effc run: error: argument --fuel: expected a whole number of steps, found 'abc'"),
        (("run", str(one_step), "--fuel", "-1"), "effc run: error: argument --fuel: expected a whole number of steps, found '-1'"),
        (("run", unit, "--fuel", "-5"), "effc run: error: argument --fuel: expected a whole number of steps, found '-5'"),
        (("diff", unit, "--fuel=-1"), "effc diff: error: argument --fuel: expected a whole number of steps, found '-1'"),
        (("corpus", str(CORPUS), "--fuel", "1.5"), "effc corpus: error: argument --fuel: expected a whole number of steps, found '1.5'"),
        (("bogus",), "effc: error: argument command: invalid choice: 'bogus'"),
        ((), "effc: error: the following arguments are required: command"),
    ]
    for args, message in cases:
        with pytest.raises(SystemExit) as e:
            run_cli(*args)
        assert e.value.code == 1, args
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and message in err, args
    # Zero fuel is fuel: a result in no steps, and fuel exhaustion after them.
    assert run_cli("run", unit, "--fuel", "0") == 0
    assert capsys.readouterr().out == "return unit (0 steps)\n"
    assert run_cli("run", str(one_step), "--fuel", "0") == 2
    assert capsys.readouterr().err == "error: evaluation exceeded 0 steps\n"

    proc = subprocess.run(
        [sys.executable, "-m", "effc.cli", "dump", unit, "--stage", "bogus"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 1 and "invalid choice: 'bogus'" in proc.stderr


def test_cli_input_too_deep(capsys, tmp_path):
    # Input nested past the recursion limit: exit 4, one line, no traceback.
    # A test of its own, because the RecursionError switches a `sys.settrace`
    # tracer off for the rest of the test.
    deep = tmp_path / "deep.eff"
    deep.write_text("return " + "(" * 3000 + "unit" + ")" * 3000 + "\n")
    assert run_cli("check", str(deep)) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "input too deep" in err and "Traceback" not in err

    # The corpus command counts the deep file as a failure and goes on.
    (tmp_path / "ok.eff").write_text((CORPUS / "p02_return_int.eff").read_text())
    assert run_cli("corpus", str(tmp_path)) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("deep.eff: internal error: input too deep")
    assert out[1].startswith("ok.eff: ok")


def test_cli_corpus_exit_codes(capsys, tmp_path, monkeypatch):
    # A directory without programs is rejected input.
    assert run_cli("corpus", str(tmp_path)) == 1
    assert capsys.readouterr().err == f"no .eff programs under {tmp_path}\n"

    # A program with a diagnostic is a failure, and the others still run.
    (tmp_path / "bad.eff").write_text((CORPUS_BAD / "b01_dirtclash.eff").read_text())
    (tmp_path / "ok.eff").write_text((CORPUS / "p02_return_int.eff").read_text())
    assert run_cli("corpus", str(tmp_path)) == 3
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("bad.eff: error: ")
    assert out[1] == "ok.eff: ok (return 5)"

    # A harness failure is a metatheory violation.
    def failing(text, program_id="<text>", fuel=100_000, check_each_step=True):
        return pipeline.DiffReport(program_id, failure="backends disagree")

    monkeypatch.setattr(pipeline, "differential_check_text", failing)
    assert run_cli("corpus", str(tmp_path)) == 3
    out = capsys.readouterr().out.splitlines()
    assert out == ["bad.eff: FAIL: backends disagree", "ok.eff: FAIL: backends disagree"]

    # Any other exception is an internal error of that program.
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(pipeline, "differential_check_text", broken)
    assert run_cli("corpus", str(tmp_path)) == 3
    out = capsys.readouterr().out.splitlines()
    assert out == ["bad.eff: internal error: ValueError: boom", "ok.eff: internal error: ValueError: boom"]


def test_cli_run_reports_a_stuck_term_as_a_metatheory_violation(capsys, monkeypatch):
    # Elaborated programs never get stuck, so the evaluator is made to.
    def stuck(*args, **kwargs):
        raise StuckTerm("stuck term: unsafe coercion applied to an operation")

    monkeypatch.setattr(pipeline, "run_text", stuck)
    assert run_cli("run", str(CORPUS / "p02_return_int.eff"), "--backend", "noeff") == 3
    err = capsys.readouterr().err
    assert err == "metatheory violation: stuck term: unsafe coercion applied to an operation\n"


def test_cli_rejects_integer_literals_python_cannot_read(capsys, tmp_path):
    # The lexer takes any Unicode digit; Python reads neither a superscript
    # digit nor a literal of more than 4,300 digits.
    for i, literal in enumerate(("\u00b2", "9" * 5000)):
        path = tmp_path / f"int{i}.eff"
        path.write_text(f"return {literal}\n", encoding="utf-8")
        assert run_cli("check", str(path)) == 1
        err = capsys.readouterr().err
        assert err == "error: 1:8: not a valid integer literal\n"


@pytest.mark.parametrize("literal", ["²", "9" * 5000], ids=["superscript", "5000-digits"])
def test_source_and_dump_readers_reject_integer_literals_python_cannot_read(literal):
    for read in (source.parse_program, readers.read_exeff_comp, readers.read_skeleff_comp, readers.read_noeff_term):
        with pytest.raises(core.ParseError, match="^1:8: not a valid integer literal$"):
            read(f"return {literal}")


DUMP_ERRORS = {
    "unbound-variable": ("return x", "1:8: unbound 'x' in dump"),
    "binder-name": ("let f = fun (5 : Unit) -> return x in return unit", "1:14: expected a TermVar name, found '5'"),
    "literal": ("let f = fun (x Unit) -> return x in return unit", "1:16: expected ':', found 'Unit'"),
    "quantifier-binder": ("(fun (x : all -> return x) unit", "1:15: expected a binder, found '->'"),
    "category": ("( unit", "1:7: expected Comp, found 'end of input'"),
    "atom": ("return unit |> {}", "1:17: expected str, found '}'"),
}


@pytest.mark.parametrize("name", list(DUMP_ERRORS))
def test_dump_reader_errors_name_the_position_and_what_was_expected(name):
    text, message = DUMP_ERRORS[name]
    with pytest.raises(core.ParseError) as e:
        readers.read_exeff_comp(text)
    assert str(e.value) == message


def test_cli_dump_stages(capsys):
    for stage in ("constraints", "exeff", "skeleff", "noeff"):
        assert run_cli("dump", str(CORPUS / "p10_handle_ret_only.eff"), "--stage", stage) == 0
        assert capsys.readouterr().out.strip()


# Rejected programs whose errors once printed no position: a skeleton clash
# found while solving a subtyping constraint, an unknown operation in a
# declared operation's type, and one in a handler's clause.
UNPLACED = {
    "skeleton_clash.eff": "(fun g -> g 1) (fun h -> h unit)\n",
    "signature.eff": "effect A : (Unit -> Unit ! {B}) -> Unit\nreturn unit\n",
    "clause.eff": "with handler { return x -> return x, Tock p k -> k p } handle return unit\n",
}


def test_every_rejected_program_names_a_source_position(capsys, tmp_path):
    for name, text in UNPLACED.items():
        (tmp_path / name).write_text(text)
    paths = sorted(CORPUS_BAD.glob("*.eff")) + sorted(tmp_path.glob("*.eff"))
    for path in paths:
        assert run_cli("check", str(path)) == 1, path.name
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \d+:\d+: [^\n]+\n", err), (path.name, err)
    assert len(paths) == 9


def test_constraint_dumps_come_from_infer_text(corpus_paths, capsys):
    # A compiled artefact keeps no inference record: `dump --stage
    # constraints` reads `infer_text`, as `effc infer` does, and rejects the
    # ill-typed programs with the same code.
    for path in corpus_paths:
        assert run_cli("dump", str(path), "--stage", "constraints") == 0
        want = pipeline.dump_constraints(pipeline.infer_text(path.read_text()))
        assert capsys.readouterr().out == want, path.name
    for path in sorted(CORPUS_BAD.glob("*.eff")):
        for args in (("dump", str(path), "--stage", "constraints"), ("infer", str(path))):
            assert run_cli(*args) == 1, args
            assert capsys.readouterr().err.startswith("error: "), args
    with pytest.raises(ValueError, match="unknown dump stage 'constraints'"):
        pipeline.dump_stage(pipeline.compile_text("return unit"), "constraints")


def test_cli_corpus(capsys):
    assert run_cli("corpus", str(CORPUS)) == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 30


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "effc.cli", "check", str(CORPUS / "p02_return_int.eff")],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
