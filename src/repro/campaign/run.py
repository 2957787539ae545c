"""The campaign runner: sections through the engine, in order.

Each section runs as one engine invocation
(:func:`repro.engine.engine.run_tasks`) over its compiled tasks, with
its own JSONL checkpoint at ``<out>.<section>.jsonl``.  Resume is
therefore *per section*: re-running an interrupted campaign skips
every section whose records are complete (the engine validates and
reuses them without executing anything) and picks the interrupted
section back up mid-file -- finish the check section, crash during
fuzz, resume straight into the fuzz section's remaining points.

:func:`run_section` is that per-section step on its own, with the
checkpoint path given exactly; ``repro sweep`` runs its synthesized
section through it.  Sections whose executor is ``serial_only``
(stress) run with one worker regardless of the requested fan-out;
everything else uses the campaign's worker pool.  Exit-code contract,
aggregated bottom-up from point verdicts: ``0`` all points PASS,
``1`` any point FAIL, ``2`` no failures but at least one PARTIAL (a
budget expired somewhere) -- the same 0/1/2 convention every
subcommand honours.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.compile import compile_section
from repro.campaign.executors import (
    EXIT_CODES,
    campaign_point_task,
    executor_for,
    worst,
)
from repro.campaign.spec import CampaignSpec, Section, SpecError

VERDICTS = ("PASS", "FAIL", "PARTIAL")


@dataclass
class SectionOutcome:
    """One section's aggregated result."""

    name: str
    kind: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    workers: int = 1
    elapsed: float = 0.0
    checkpoint: Optional[str] = None

    @property
    def counts(self) -> Dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for record in self.records:
            out[record["payload"]["verdict"]] += 1
        return out

    @property
    def verdict(self) -> str:
        return worst(r["payload"]["verdict"] for r in self.records)


@dataclass
class CampaignOutcome:
    """Aggregate result of one campaign run."""

    spec: CampaignSpec
    sections: List[SectionOutcome] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def counts(self) -> Dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for section in self.sections:
            for verdict, n in section.counts.items():
                out[verdict] += n
        return out

    @property
    def points(self) -> int:
        return sum(len(section.records) for section in self.sections)

    @property
    def verdict(self) -> str:
        return worst(section.verdict for section in self.sections)

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 clean, 1 violation, 2 PARTIAL."""
        return EXIT_CODES[self.verdict]


def section_checkpoint(out: Optional[str], section: str) -> Optional[str]:
    """The per-section JSONL path for a campaign ``--out`` base."""
    return f"{out}.{section}.jsonl" if out else None


def run_section(
    section: Section,
    root_seed: int = 0,
    *,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SectionOutcome:
    """Compile one section and run its points through the engine,
    checkpointing to exactly ``checkpoint``.  ``progress`` (if given)
    is called as ``progress(done, total)`` per completed point."""
    from repro.engine.engine import run_tasks

    tasks = compile_section(section, root_seed)
    if executor_for(section.kind).serial_only:
        workers = 1
    report = run_tasks(
        campaign_point_task,
        tasks,
        workers=workers,
        checkpoint=checkpoint,
        resume=resume,
        progress=(
            None if progress is None
            else lambda done, total, record: progress(done, total)
        ),
    )
    return SectionOutcome(
        name=section.name,
        kind=section.kind,
        records=report.records,
        executed=report.executed,
        skipped=report.skipped,
        workers=report.workers,
        elapsed=report.elapsed,
        checkpoint=report.checkpoint,
    )


def run_spec(
    spec: CampaignSpec,
    *,
    workers: Optional[int] = None,
    out: Optional[str] = None,
    resume: bool = True,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str, int, int], None]] = None,
) -> CampaignOutcome:
    """Run a campaign spec; see the module docstring.

    ``workers=None`` takes the spec's own default (``spec.workers``,
    itself 0 = one per CPU).  ``only`` restricts the run to the named
    sections, in spec order.  ``progress`` (if given) is called as
    ``progress(section_name, done, total)`` per completed point.
    """
    if only:
        known = {section.name for section in spec.sections}
        missing = [name for name in only if name not in known]
        if missing:
            raise SpecError(
                f"unknown section(s): {', '.join(missing)} "
                f"(spec has: {', '.join(sorted(known))})"
            )
    sections = [
        section for section in spec.sections
        if not only or section.name in only
    ]
    requested = spec.workers if workers is None else workers
    start = time.perf_counter()
    outcome = CampaignOutcome(spec=spec)
    for section in sections:
        outcome.sections.append(run_section(
            section,
            spec.root_seed,
            workers=requested or _cpu_count(),
            checkpoint=section_checkpoint(out, section.name),
            resume=resume,
            progress=(
                None if progress is None
                else functools.partial(progress, section.name)
            ),
        ))
    outcome.elapsed = time.perf_counter() - start
    return outcome


def _cpu_count() -> int:
    import os

    return os.cpu_count() or 1
