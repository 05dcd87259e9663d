"""Pipeline orchestration: staged compilation, evaluation, differential checks.

Every stage re-typechecks its artifact in its own calculus before returning,
so a report of success certifies the metatheoretic contracts at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from . import display, exeff, infer, noeff, skeleff, source
from .core import (
    CompType,
    Context,
    CoVar,
    DirtVar,
    EffError,
    FuelExhausted,
    Signature,
    SkelVar,
    StuckTerm,
    TyVar,
    TypecheckError,
    skeleton,
)
from .traverse import alpha_eq, summarize

STAGES = ("exeff", "skeleff", "noeff")
BACKENDS = ("exeff", "skeleff", "noeff")


@dataclass
class PipelineArtifacts:
    """What `compile_text` keeps: the signature, the computation type and the
    checked term of each stage.  The inference record that produced them is
    freed on return; `infer_text` gives it."""

    source_sig: Signature
    cty: Optional[CompType] = None
    exeff_term: Optional[object] = None
    skeleff_term: Optional[object] = None
    noeff_term: Optional[object] = None


@dataclass
class DiffReport:
    """What `differential_check_text` found: each backend's observation and
    step count, and the first failure, if any."""

    program: str
    observations: dict = field(default_factory=dict)  # backend -> its observation
    steps: dict = field(default_factory=dict)
    failure: Optional[str] = None

    @property
    def agreement(self) -> bool:
        return self.failure is None


def compile_text(text: str, stage: str = "noeff") -> PipelineArtifacts:
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    sig, comp = source.parse_program(text)
    source.check_signature(sig)
    art = PipelineArtifacts(sig)

    cty, term, _ = infer.infer_and_default(sig, comp)
    art.cty = cty
    derived = exeff.derive(Context(sig), term)
    if not alpha_eq(derived.of(term), cty):
        raise TypecheckError("elaborated term does not re-typecheck at the inferred type")
    art.exeff_term = term
    summarize(term)
    if stage == "exeff":
        return art

    sk = skeleff.erase_comp({}, term)
    sk_ty = skeleff.typecheck_sk(Context(sig.map(partial(skeleton, {}))), sk)
    if not alpha_eq(sk_ty, skeleton({}, cty)):
        raise TypecheckError("erased term does not re-typecheck at the erased type")
    summarize(sk)
    art.skeleff_term = sk
    if stage == "noeff":
        nterm = noeff.elab_comp(derived, term)
        nty = noeff.typecheck_noeff(Context(sig.map(noeff.elab_vty)), nterm)
        want = noeff.elab_cty(cty)
        if not alpha_eq(nty, want):
            raise TypecheckError("elaborated pure term does not re-typecheck at the elaborated type")
        summarize(nterm)
        art.noeff_term = nterm
    return art


def infer_text(text: str) -> infer.InferOutcome:
    """Parse `text`, check its signature and infer its main computation: the
    record of inference (constraints, solution, let schemes) that `effc infer`
    and `dump --stage constraints` read."""
    sig, comp = source.parse_program(text)
    source.check_signature(sig)
    return infer.infer_top(sig, comp)


# ---------------------------------------------------------------------------
# Observations


def _observe(result) -> str:
    """The observation of a result, the text the CLI prints for it:
    `return <ground value>` or `operation <Op>`."""
    if isinstance(result, exeff.COp):
        return f"operation {result.op}"
    if isinstance(result, exeff.EUnit):
        return "return unit"
    if isinstance(result, exeff.EInt):
        return f"return {result.value}"
    raise EffError("observation requires a ground result type")


def observe_exeff(result) -> str:
    while isinstance(result, exeff.CCast):
        result = result.comp
    if isinstance(result, exeff.CReturn):
        result = result.val
    return _observe(result)


# A SkelEff result is an ExEff one; the benchmark's runner reads this name.
observe_skeleff = observe_exeff


def observe_noeff(result) -> str:
    while isinstance(result, noeff.MReturn):
        result = result.term
    return _observe(result)


# ---------------------------------------------------------------------------
# Running programs


@dataclass
class RunOutcome:
    observation: str
    steps: int
    trace: Optional[list] = None


# backend -> (artefact field of its term, its reduction, its observation)
_RUNNERS = {
    "exeff": ("exeff_term", exeff.REDUCTION, observe_exeff),
    "skeleff": ("skeleff_term", skeleff.REDUCTION, observe_exeff),
    "noeff": ("noeff_term", noeff.REDUCTION, observe_noeff),
}


def run_text(text: str, backend: str = "exeff", fuel: int = 100_000, keep_trace: bool = False) -> RunOutcome:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    art = compile_text(text, stage=backend)
    term, reduction, observe = _RUNNERS[backend]
    result, steps, trace = reduction.run(getattr(art, term), fuel, keep_trace)
    return RunOutcome(observe(result), steps, trace)


# ---------------------------------------------------------------------------
# Differential checking


def differential_check_text(
    text: str, program_id: str = "<text>", fuel: int = 100_000, check_each_step: bool = True
) -> DiffReport:
    """Evaluate on all three backends, asserting the metatheorems along the way.

    Along the core trace every step must preserve the exact type, and the
    erasures of consecutive terms must be congruent.  Any violation or
    cross-backend disagreement produces a failing report; a violation names
    its step, counted from 1, and the redex class and head rule of a step
    that broke a property.  A backend that
    takes more than `fuel` steps raises FuelExhausted.
    """
    report = DiffReport(program_id)
    art = compile_text(text, stage="noeff")
    env = Context(art.source_sig)

    # `compile_text` checked that the term derives `art.cty`.
    term, erased, ty = art.exeff_term, art.skeleff_term, art.cty
    steps = 0
    while not exeff.is_comp_result(term):
        nxt = exeff.step_comp(term)
        if nxt is None:
            report.failure = f"metatheory: step {steps + 1}: well-typed non-result failed to step"
            return report
        if check_each_step:
            try:
                preserved = alpha_eq(exeff.typecheck_comp(env, nxt), ty)
            except EffError:  # an ill-typed step has no type to preserve
                preserved = False
            if not preserved:
                report.failure = f"metatheory: step {steps + 1} changed the subject's type ({exeff.REDUCTION.rule(term)})"
                return report
            erased_nxt = skeleff.erase_comp({}, nxt)
            if not skeleff.congruent(erased, erased_nxt, fuel):
                report.failure = f"metatheory: erasure of step {steps + 1} is not congruent ({exeff.REDUCTION.rule(term)})"
                return report
            erased = erased_nxt
        term = nxt
        steps += 1
        if steps > fuel:
            raise FuelExhausted(f"evaluation exceeded {fuel} steps")
    report.observations["exeff"] = observe_exeff(term)
    report.steps["exeff"] = steps

    sk_res, sk_steps = skeleff.eval_sk(art.skeleff_term, fuel)
    report.observations["skeleff"] = observe_exeff(sk_res)
    report.steps["skeleff"] = sk_steps

    try:
        n_res, n_steps = noeff.eval_noeff(art.noeff_term, fuel)
    except StuckTerm:
        report.failure = "no-stuck violation: elaborated pure program got stuck"
        return report
    report.observations["noeff"] = observe_noeff(n_res)
    report.steps["noeff"] = n_steps

    if len(set(report.observations.values())) != 1:
        report.failure = "backends disagree: " + ", ".join(
            f"{k}={v}" for k, v in sorted(report.observations.items())
        )
    return report


# ---------------------------------------------------------------------------
# Dumps


def dump_constraints(outcome: infer.InferOutcome) -> str:
    show = display.show
    lines = []
    anns = sorted(
        (it for it in outcome.generated if isinstance(it, infer.SkelAnn)), key=lambda it: it.var.id
    )
    subs = sorted(
        (it for it in outcome.generated if isinstance(it, infer.SubCt)), key=lambda it: it.co.id
    )
    for it in anns:
        lines.append(f"{show(it.var)} : {show(it.skel)}")
    for it in subs:
        lines.append(f"{show(it.co)} : {show(it.constraint)}")
    lines.append("--- substitution ---")
    s = outcome.subst
    for sort, solved in ((SkelVar, s.skel), (TyVar, s.ty), (DirtVar, s.dirt), (CoVar, s.co)):
        for vid in sorted(solved):
            lines.append(f"{show(sort(vid))} := {show(solved[vid])}")
    return "\n".join(lines) + "\n"


def dump_stage(art: PipelineArtifacts, stage: str) -> str:
    if stage not in _RUNNERS:
        raise ValueError(f"unknown dump stage {stage!r}")
    return display.show(display.canonicalize(getattr(art, _RUNNERS[stage][0]))) + "\n"
