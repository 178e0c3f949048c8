"""Job specifications: what the serve layer agrees to compute.

A :class:`JobSpec` is the service-level analogue of a
:class:`~repro.campaign.spec.CampaignSpec`: the *complete* description
of one unit of work, normalized so that two requests asking for the
same computation — regardless of key order, omitted defaults, or list
vs tuple spelling — canonicalize to the same bytes and therefore the
same cache key.  The key (``cache_key``) is the content hash of the
canonical spec, the same scheme the campaign store uses for its
manifest; everything the result cache and the in-flight coalescer do
hangs off that one derivation.

Job types mirror the existing one-shot CLI verbs:

========== ==========================================================
type       params
========== ==========================================================
campaign   any :class:`CampaignSpec` field (kinds, workloads, models,
           injections, seed, instructions, warmup, strike_window,
           config, sampling) plus ``jobs`` / ``task_timeout`` /
           ``chunk_size`` execution knobs
run        kind, benchmarks, instructions, warmup, seed
experiment experiment (a registry id, e.g. ``fig6``), instructions,
           warmup, seed, jobs
avf        workload (``name`` or ``name@seed``), steps
analyze    workload, seed
========== ==========================================================

Execution knobs (``jobs``, ``task_timeout``, ``chunk_size``) *are*
part of the key even though results are provably identical across
them — a conservative choice that keeps the cache sound by
construction rather than by argument.  A campaign's ``jobs`` defaults
to ``None``, meaning "use the daemon's ``--campaign-jobs``"; only an
explicitly submitted value overrides it (and keys differently).
"""

from typing import Dict, List, Optional

from repro.util.canonical import canonical_json, content_hash

#: Bump when the result payload shape of any job type changes in a way
#: that makes previously cached entries wrong to serve.
JOB_FORMAT_VERSION = 1


class JobValidationError(ValueError):
    """The submitted job is malformed (HTTP 400, CLI exit 2)."""


#: Per-type parameter defaults.  Submissions are merged over these so
#: an omitted parameter and an explicitly-defaulted one hash alike.
JOB_TYPE_DEFAULTS: Dict[str, Dict[str, object]] = {
    "campaign": {
        "kinds": ["srt"],
        "workloads": ["gcc"],
        "models": ["transient-result"],
        "injections": 100,
        "seed": 0,
        "instructions": 800,
        "warmup": 2000,
        "strike_window": None,
        "config": None,
        "sampling": "uniform",
        # None = "use the daemon's --campaign-jobs"; an explicit value
        # from the submission wins and becomes part of the cache key.
        "jobs": None,
        "task_timeout": 0,
        "chunk_size": None,
    },
    "run": {
        "kind": "srt",
        "benchmarks": ["gcc"],
        "instructions": 1500,
        "warmup": 12000,
        "seed": 0,
    },
    "experiment": {
        "experiment": None,
        "instructions": 1500,
        "warmup": 12000,
        "seed": 0,
        "jobs": 1,
    },
    "avf": {
        "workload": "gcc",
        "steps": 2000,
    },
    "analyze": {
        "workload": "gcc",
        "seed": 0,
    },
}

#: Machine kinds a `run` job accepts (mirrors ``make_machine``).
RUN_KINDS = ("base", "base2", "srt", "lockstep", "crt")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobValidationError(message)


#: Campaign params that steer execution; the rest name the campaign.
#: ``artifact_dir`` is never submitted: the daemon adds it, and the
#: resolved ``jobs``, to the params it sends a worker.
_CAMPAIGN_KNOBS = ("jobs", "task_timeout", "chunk_size", "artifact_dir")


def campaign_spec(params: Dict[str, object]):
    """The :class:`CampaignSpec` a campaign job's params name."""
    from repro.campaign.spec import CampaignSpec

    return CampaignSpec(**{key: value for key, value in params.items()
                           if key not in _CAMPAIGN_KNOBS})


def _validate_campaign(params: Dict[str, object]) -> None:
    from repro.campaign.spec import CampaignConfigError

    try:
        campaign_spec(params).validate()
    except CampaignConfigError as error:
        raise JobValidationError(f"campaign: {error}") from None
    _require(params["jobs"] is None or int(params["jobs"]) >= 1,
             "campaign: jobs must be >= 1")


def _validate_run(params: Dict[str, object]) -> None:
    from repro.isa.profiles import split_workload

    _require(params["kind"] in RUN_KINDS,
             f"run: unknown kind {params['kind']!r}; expected one of "
             f"{list(RUN_KINDS)}")
    benchmarks = params["benchmarks"]
    _require(isinstance(benchmarks, list) and benchmarks,
             "run: benchmarks must be a non-empty list")
    for name in benchmarks:
        try:
            split_workload(name)
        except (KeyError, ValueError) as error:
            message = error.args[0] if error.args else str(error)
            raise JobValidationError(f"run: {message}") from None
    _require(int(params["instructions"]) > 0,
             "run: instructions must be positive")
    _require(int(params["warmup"]) >= 0, "run: warmup must be >= 0")


def _validate_experiment(params: Dict[str, object]) -> None:
    from repro.harness.experiments import EXPERIMENT_REGISTRY

    name = params["experiment"]
    _require(name in EXPERIMENT_REGISTRY,
             f"experiment: unknown id {name!r}; expected one of "
             f"{sorted(EXPERIMENT_REGISTRY)}")
    _require(int(params["instructions"]) > 0,
             "experiment: instructions must be positive")
    _require(int(params["warmup"]) >= 0, "experiment: warmup must be >= 0")
    _require(int(params["jobs"]) >= 1, "experiment: jobs must be >= 1")


def _validate_workload(params: Dict[str, object], prefix: str) -> None:
    from repro.isa.profiles import split_workload

    try:
        split_workload(params["workload"])
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise JobValidationError(f"{prefix}: {message}") from None


def _validate_avf(params: Dict[str, object]) -> None:
    _validate_workload(params, "avf")
    _require(int(params["steps"]) > 0, "avf: steps must be positive")


def _validate_analyze(params: Dict[str, object]) -> None:
    _validate_workload(params, "analyze")


_VALIDATORS = {
    "campaign": _validate_campaign,
    "run": _validate_run,
    "experiment": _validate_experiment,
    "avf": _validate_avf,
    "analyze": _validate_analyze,
}


class JobSpec:
    """One normalized, validated unit of service work."""

    def __init__(self, job_type: str, params: Dict[str, object]) -> None:
        self.type = job_type
        self.params = params

    @classmethod
    def build(cls, job_type: str,
              params: Optional[Dict[str, object]] = None) -> "JobSpec":
        """Validate and normalize a submission into a JobSpec.

        Raises :class:`JobValidationError` on an unknown type, unknown
        parameter names, or per-type semantic violations.
        """
        if job_type not in JOB_TYPE_DEFAULTS:
            raise JobValidationError(
                f"unknown job type {job_type!r}; expected one of "
                f"{sorted(JOB_TYPE_DEFAULTS)}")
        defaults = JOB_TYPE_DEFAULTS[job_type]
        params = dict(params or {})
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise JobValidationError(
                f"{job_type}: unknown parameter(s) {unknown}; expected "
                f"a subset of {sorted(defaults)}")
        merged = dict(defaults)
        merged.update(params)
        merged = _normalize(merged)
        _VALIDATORS[job_type](merged)
        return cls(job_type, merged)

    # -- identity ----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "format_version": JOB_FORMAT_VERSION,
            "type": self.type,
            "params": self.params,
        }

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def cache_key(self) -> str:
        """Content-addressed identity (result-cache / coalescing key)."""
        return content_hash(self.canonical_json())

    def __repr__(self) -> str:
        return f"JobSpec({self.type!r}, key={self.cache_key()})"


def _normalize(params: Dict[str, object]) -> Dict[str, object]:
    """Collapse equivalent spellings so they hash identically."""
    normalized: Dict[str, object] = {}
    for key, value in params.items():
        if isinstance(value, tuple):
            value = list(value)
        if isinstance(value, list):
            value = [item for item in value]
        normalized[key] = value
    return normalized


def list_job_types() -> List[str]:
    return sorted(JOB_TYPE_DEFAULTS)
