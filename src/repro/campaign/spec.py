"""Campaign specification: what to inject, where, and how often.

A :class:`CampaignSpec` is the *complete* description of a statistical
fault-injection campaign: the cartesian strata (machine kinds ×
workloads × fault models), the number of injections drawn per stratum,
the measurement window, and the machine configuration.  Everything a
worker process needs is derivable from the spec plus a task index, so
the spec's canonical JSON is also the campaign's identity: its SHA-256
``content_hash`` keys the artifact store, and any change to a field
that could alter results invalidates previously collected records.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.faults import ARCH_FAULT_MODELS, FAULT_MODELS
from repro.isa.profiles import split_workload
from repro.util.canonical import canonical_json, content_hash

#: Machine kinds a campaign may target (mirrors ``make_machine``);
#: ``arch`` runs the functional-executor oracle used by validate-avf.
CAMPAIGN_KINDS = ("base", "srt", "crt", "lockstep", "arch")

#: Site-sampling strategies (non-uniform ones need the AVF analyzer,
#: hence architectural models).
SAMPLING_MODES = ("uniform", "stratified", "guided")

#: Bump when the record schema or sampling procedure changes in a way
#: that makes old JSONL artifacts incomparable.
FORMAT_VERSION = 2


class CampaignConfigError(ValueError):
    """The spec is invalid, or conflicts with an existing artifact store."""


@dataclass
class CampaignSpec:
    """Declarative description of one fault-injection campaign."""

    kinds: Tuple[str, ...] = ("srt",)
    workloads: Tuple[str, ...] = ("gcc",)
    models: Tuple[str, ...] = ("transient-result",)
    #: Injections drawn per (kind × workload × model) stratum.
    injections: int = 100
    #: Root seed: drives both workload generation and site sampling.
    seed: int = 0
    instructions: int = 800
    warmup: int = 2000
    #: Strike-cycle window [lo, hi] for transient faults; ``None`` picks
    #: ``(50, max(200, instructions))``.
    strike_window: Optional[Tuple[int, int]] = None
    #: Full MachineConfig as a dict (``None`` = defaults).  Stored
    #: expanded so the content hash captures every knob.
    config: Optional[Dict[str, object]] = None
    #: Site-sampling strategy.  ``uniform`` draws i.i.d. sites;
    #: ``stratified`` alternates predicted-masked / predicted-ACE draws
    #: (validate-avf confusion matrices); ``guided`` skips sites the AVF
    #: analyzer proves masked (cheaper campaigns, reweighted coverage).
    sampling: str = "uniform"

    def __post_init__(self) -> None:
        self.kinds = tuple(self.kinds)
        self.workloads = tuple(self.workloads)
        self.models = tuple(self.models)
        if self.strike_window is not None:
            self.strike_window = tuple(self.strike_window)

    # -- validation --------------------------------------------------------
    def validate(self) -> "CampaignSpec":
        if not self.kinds or not self.workloads or not self.models:
            raise CampaignConfigError(
                "campaign needs at least one kind, workload, and model")
        for kind in self.kinds:
            if kind not in CAMPAIGN_KINDS:
                raise CampaignConfigError(
                    f"unknown machine kind {kind!r}; expected one of "
                    f"{sorted(CAMPAIGN_KINDS)}")
        for workload in self.workloads:
            try:
                split_workload(workload)
            except (KeyError, ValueError) as error:
                message = error.args[0] if error.args else str(error)
                raise CampaignConfigError(
                    f"bad workload: {message}") from None
        for model in self.models:
            if model not in FAULT_MODELS:
                raise CampaignConfigError(
                    f"unknown fault model {model!r}; expected one of "
                    f"{sorted(FAULT_MODELS)}")
        arch_models = [m for m in self.models if m in ARCH_FAULT_MODELS]
        if arch_models and len(arch_models) != len(self.models):
            raise CampaignConfigError(
                "architectural and machine fault models cannot be mixed "
                "in one campaign")
        if arch_models and tuple(self.kinds) != ("arch",):
            raise CampaignConfigError(
                "architectural fault models require kinds=('arch',)")
        if not arch_models and "arch" in self.kinds:
            raise CampaignConfigError(
                "kind 'arch' requires architectural fault models "
                f"({', '.join(ARCH_FAULT_MODELS)})")
        if self.sampling not in SAMPLING_MODES:
            raise CampaignConfigError(
                f"unknown sampling mode {self.sampling!r}; expected one "
                f"of {SAMPLING_MODES}")
        if self.sampling != "uniform" and not arch_models:
            raise CampaignConfigError(
                f"sampling={self.sampling!r} needs the AVF analyzer, "
                "which covers architectural fault models only")
        if self.injections <= 0:
            raise CampaignConfigError("injections must be positive")
        if self.instructions <= 0:
            raise CampaignConfigError("instructions must be positive")
        if self.warmup < 0:
            raise CampaignConfigError("warmup must be >= 0")
        lo, hi = self.effective_strike_window()
        # Integer bounds: the sampler draws fault cycles with randint.
        if not (isinstance(lo, int) and isinstance(hi, int)
                and 0 <= lo <= hi):
            raise CampaignConfigError(
                f"invalid strike window ({lo}, {hi})")
        if self.config is not None:
            MachineConfig.from_dict(self.config)  # raises on bad fields
        return self

    # -- derived -----------------------------------------------------------
    def effective_strike_window(self) -> Tuple[int, int]:
        if self.strike_window is not None:
            return self.strike_window
        return (50, max(200, self.instructions))

    def machine_config(self) -> MachineConfig:
        if self.config is None:
            return MachineConfig()
        return MachineConfig.from_dict(self.config)

    def strata(self) -> List[Tuple[str, str, str]]:
        """All (kind, workload, model) strata in canonical order."""
        return [(kind, workload, model)
                for kind in self.kinds
                for workload in self.workloads
                for model in self.models]

    def total_tasks(self) -> int:
        return len(self.strata()) * self.injections

    # -- serialization / identity ------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["kinds"] = list(self.kinds)
        data["workloads"] = list(self.workloads)
        data["models"] = list(self.models)
        if self.strike_window is not None:
            data["strike_window"] = list(self.strike_window)
        data["format_version"] = FORMAT_VERSION
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        payload = dict(data)
        version = payload.pop("format_version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise CampaignConfigError(
                f"campaign format v{version} is not readable by this "
                f"build (expected v{FORMAT_VERSION})")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise CampaignConfigError(
                f"unknown campaign fields: {unknown}")
        if payload.get("strike_window") is not None:
            payload["strike_window"] = tuple(payload["strike_window"])
        return cls(**payload)

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def content_hash(self) -> str:
        """Identity of the campaign: hash of every result-affecting field."""
        return content_hash(self.canonical_json())
