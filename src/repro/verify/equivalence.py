"""Differential verification — the simulator analog of §5.1's LEC/GLS.

The paper proves its netlists equivalent to the RTL with Cadence LEC and
gate-level simulation; the simulator analog is *differential testing*:
drive the full accelerator model and the two software WFA engines with
the same inputs and check that

* every score equals the SWG dynamic-programming optimum,
* every CIGAR recovered through the hardware path (origin stream ->
  CPU backtrace) is a valid alignment whose Eq. 5 score equals the
  reported score,
* the scalar and vectorised software engines agree cell-for-cell on
  abstract work.

`EquivalenceChecker.run` is used by the integration tests and can be run
standalone for longer campaigns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..align.swg import swg_align
from ..align.wfa import WfaAligner
from ..align.wfa_vectorized import VectorizedWfaAligner
from ..wfasic.accelerator import WfasicAccelerator, batch_answers
from ..wfasic.config import WfasicConfig
from ..workloads.generator import PairGenerator, SequencePair

__all__ = ["Mismatch", "EquivalenceReport", "EquivalenceChecker"]


@dataclass(frozen=True)
class Mismatch:
    """One disagreement found by the checker."""

    pair_id: int
    kind: str
    detail: str


@dataclass
class EquivalenceReport:
    """Outcome of one differential campaign."""

    pairs_checked: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


class EquivalenceChecker:
    """Accelerator-vs-oracle differential tester."""

    def __init__(self, config: WfasicConfig | None = None, *, seed: int = 0) -> None:
        self.config = (config or WfasicConfig.paper_default()).with_backtrace(True)
        self.seed = seed

    def generate(self, count: int, max_len: int = 120) -> list[SequencePair]:
        """A mixed difficulty batch: related and unrelated pairs."""
        rng = random.Random(self.seed)
        pairs: list[SequencePair] = []
        pid = 0
        while len(pairs) < count:
            length = rng.randint(1, max_len)
            rate = rng.choice([0.0, 0.02, 0.1, 0.3])
            gen = PairGenerator(
                length=length, error_rate=rate, seed=rng.randrange(2**31)
            )
            p = gen.pair()
            pairs.append(
                SequencePair(pattern=p.pattern, text=p.text, pair_id=pid)
            )
            pid += 1
        return pairs

    def run(self, pairs: list[SequencePair]) -> EquivalenceReport:
        """Check one batch through every engine."""
        report = EquivalenceReport()
        cfg = self.config
        pen = cfg.penalties
        answers = batch_answers(WfasicAccelerator(cfg).run_pairs(pairs), pairs)

        scalar = WfaAligner(pen)
        vector = VectorizedWfaAligner(pen)

        for pair in pairs:
            report.pairs_checked += 1
            a, b = pair.pattern, pair.text
            oracle = swg_align(a, b, pen)
            pid = pair.pair_id
            if not answers.success[pid]:
                report.mismatches.append(
                    Mismatch(pid, "success", "accelerator rejected pair")
                )
                continue
            score = answers.scores[pid]
            if score != oracle.score:
                report.mismatches.append(
                    Mismatch(
                        pid, "score", f"accelerator {score} != oracle {oracle.score}"
                    )
                )
            cigar = answers.cigars[pid]
            if cigar is None:
                report.mismatches.append(
                    Mismatch(pid, "backtrace", "no CIGAR recovered")
                )
            else:
                try:
                    cigar.validate(a, b)
                    if cigar.score(pen) != oracle.score:
                        report.mismatches.append(
                            Mismatch(
                                pid,
                                "cigar-score",
                                f"{cigar.score(pen)} != {oracle.score}",
                            )
                        )
                except Exception as exc:  # CigarError
                    report.mismatches.append(Mismatch(pid, "cigar", str(exc)))

            rs = scalar.align(a, b)
            rv = vector.align(a, b)
            if rs.score != oracle.score or rv.score != oracle.score:
                report.mismatches.append(
                    Mismatch(
                        pid,
                        "software",
                        f"scalar {rs.score} / vector {rv.score} vs {oracle.score}",
                    )
                )
            if rs.work.cells_computed != rv.work.cells_computed:
                report.mismatches.append(
                    Mismatch(pid, "work", "scalar/vector cell counts differ")
                )
        return report

    def campaign(self, count: int = 50, max_len: int = 120) -> EquivalenceReport:
        """Generate-and-check in one call."""
        return self.run(self.generate(count, max_len))
