"""The paper's headline numbers, each written once, and the one result type.

Every number the evaluation quotes (§IV-A, §IV-B) is one :class:`PaperNumber`
in :data:`PAPER`, keyed by the claim it states. An experiment returns an
:class:`ExperimentResult`: its rendered table, its rows (for a run through
:func:`repro.run`, the :meth:`~repro.experiments.runner.RunOutcome.metrics`
row plus the experiment's own named columns) and its ``claims``, the
measured value of each :data:`PAPER` key it reproduces.
:meth:`ExperimentResult.claim_lines` prints them next to the paper's value
through :meth:`PaperNumber.line`, the one claim formatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.common.tables import Table

__all__ = ["PaperNumber", "PAPER", "ExperimentResult"]


@dataclass(frozen=True)
class PaperNumber:
    """One number the paper reports, as the paper states it.

    ``qualifier`` is how the paper hedges it (``"~"``, ``"up to "``,
    ``"down to "``, ``"< "`` or nothing); ``digits`` is the percent
    precision both the measured and the paper value print at.
    """

    experiment: str
    label: str
    value: float
    section: str
    qualifier: str = ""
    suffix: str = ""
    digits: int = 0

    def line(self, measured: float) -> str:
        """The claim line: the measured value, then the paper's."""
        fmt = f".{self.digits}%"
        return (
            f"{self.label}: {measured:{fmt}} "
            f"(paper: {self.qualifier}{self.value:{fmt}}{self.suffix})"
        )


#: Every headline number of the paper's evaluation, keyed by claim.
PAPER: Dict[str, PaperNumber] = {
    # E1: "reduces the read stale data when compared to weak consistency by
    # almost 80%" and "improves the throughput ... by up to 45%" vs strong.
    "stale_reduction_vs_eventual": PaperNumber(
        "E1", "stale-read reduction vs eventual", 0.80, "§IV-A", qualifier="~"
    ),
    "throughput_gain_vs_strong": PaperNumber(
        "E1", "throughput gain vs strong", 0.45, "§IV-A", qualifier="up to "
    ),
    # E2: "down to 48% of cost reduction with weaker consistency"; QUORUM
    # "reduces the cost of the strong consistency level by 13%"; "only 21%
    # of reads are estimated to be up-to-date" at level ONE.
    "cost_reduction_one_vs_all": PaperNumber(
        "E2", "cost reduction ONE vs ALL", 0.48, "§IV-B", qualifier="down to "
    ),
    "cost_reduction_quorum_vs_all": PaperNumber(
        "E2", "cost reduction QUORUM vs ALL", 0.13, "§IV-B"
    ),
    "fresh_reads_at_one_estimated": PaperNumber(
        "E2", "estimated fresh reads at ONE", 0.21, "§IV-B",
        suffix=" estimated up-to-date",
    ),
    # E3: "the most efficient consistency levels are the ones that provide a
    # staleness rate smaller than 20%".
    "efficient_level_stale_rate": PaperNumber(
        "E3", "most efficient level's stale reads", 0.20, "§IV-B", qualifier="< "
    ),
    # E4: "Bismar achieves up to 31% of cost reduction compared to the static
    # level Quorum ... while it only tolerates 3.5% of stale reads"; level
    # ONE "tolerates up to 61% of stale reads".
    "cost_reduction_vs_quorum": PaperNumber(
        "E4", "Bismar cost reduction vs QUORUM", 0.31, "§IV-B", qualifier="up to "
    ),
    "bismar_stale_rate": PaperNumber(
        "E4", "Bismar stale reads", 0.035, "§IV-B", digits=1
    ),
    "one_stale_rate": PaperNumber(
        "E4", "static ONE stale reads", 0.61, "§IV-B", qualifier="up to "
    ),
}


@dataclass
class ExperimentResult:
    """What every paper experiment returns.

    ``rows`` maps each table row's label to its row dict; ``claims`` maps
    :data:`PAPER` keys to the measured values, in print order.
    """

    table: Table
    rows: Dict[str, Dict[str, Any]]
    claims: Dict[str, float] = field(default_factory=dict)

    def claim_lines(self) -> List[str]:
        """Each measured claim next to the paper's number."""
        return [PAPER[key].line(value) for key, value in self.claims.items()]
