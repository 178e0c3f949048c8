"""CLI verbs for the serve layer.

Daemon::

    python -m repro serve --port 8765 --workdir runs/serve \\
        --max-queue 16 --max-running 2

Client (against a running daemon; ``--url`` or ``REPRO_SERVE_URL``
override the default ``http://127.0.0.1:8765``)::

    python -m repro submit campaign --set workloads='["gcc"]' \\
        --set injections=50 --wait
    python -m repro submit fig6 --set instructions=400
    python -m repro status j000001 --wait 30
    python -m repro fetch j000001
    python -m repro cancel j000002
    python -m repro metrics

``submit`` accepts either a job type (``campaign``, ``run``, ``avf``,
``analyze``, ``experiment``) or an experiment id (``fig6`` …) as
shorthand for ``experiment --set experiment=fig6``.  All output is
JSON in the unified ``{"version", "tool": "serve", ...}`` envelope.

Exit codes: 0 success (job done / accepted), 1 job failed or was
cancelled, 2 usage or validation error, 3 the server refused the job
(queue full / draining) or is unreachable.
"""

import argparse
import asyncio
import json
import os
import sys
from typing import Dict, List, Optional

from repro.serve.client import DEFAULT_URL, ServeClient, ServeError


def _default_url() -> str:
    return os.environ.get("REPRO_SERVE_URL", DEFAULT_URL)


def _print_json(payload: Dict[str, object]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_set(assignments: List[str]) -> Dict[str, object]:
    """``--set key=value`` pairs; values parse as JSON, else strings."""
    params: Dict[str, object] = {}
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        if not sep or not key:
            raise argparse.ArgumentTypeError(
                f"--set expects key=value, got {assignment!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


# -- daemon ----------------------------------------------------------------

def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Async simulation-as-a-service daemon (submit jobs "
                    "with `repro submit`)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--workdir", default="runs/serve",
                        help="artifact + result-cache root")
    parser.add_argument("--max-queue", type=int, default=16,
                        help="queued-job bound (admission control; "
                             "full queue → HTTP 429)")
    parser.add_argument("--max-running", type=int, default=2,
                        help="concurrent jobs; each runs in one of "
                             "this many worker processes")
    parser.add_argument("--job-timeout", type=float, default=0.0,
                        help="per-job wall-clock budget in seconds "
                             "(0 = unlimited; a timed-out job's worker "
                             "is killed, as on cancel)")
    parser.add_argument("--campaign-jobs", type=int, default=1,
                        help="default worker processes per campaign "
                             "job (a job's own `jobs` param wins)")
    parser.add_argument("--chaos", metavar="PLAN.json", default=None,
                        help="arm a chaos fault-injection plan in the "
                             "daemon (see `python -m repro chaos plan`)")
    parser.add_argument("--trace", action="store_true",
                        help="arm span tracing: append spans to "
                             "<workdir>/spans.jsonl (read them with "
                             "`python -m repro obs report`; /metrics "
                             "gains per-trace summaries)")
    return parser


def cmd_serve(argv: List[str]) -> int:
    from repro.serve.api import run_server

    args = _build_serve_parser().parse_args(argv)
    if args.chaos:
        from repro.chaos import arm_file

        code = arm_file(args.chaos)
        if code:
            return code
    if args.trace:
        from pathlib import Path

        from repro.obs.trace import arm_tracing
        span_path = Path(args.workdir) / "spans.jsonl"
        span_path.parent.mkdir(parents=True, exist_ok=True)
        arm_tracing(span_path)
        print(f"trace: armed, spans append to {span_path}", flush=True)
    try:
        asyncio.run(run_server(
            host=args.host, port=args.port, workdir=args.workdir,
            max_queue=args.max_queue, max_running=args.max_running,
            job_timeout=args.job_timeout,
            campaign_jobs=args.campaign_jobs))
    except OSError as error:
        print(f"error: cannot listen on {args.host}:{args.port}: "
              f"{error}", file=sys.stderr)
        return 2
    return 0


# -- client verbs ----------------------------------------------------------

def _add_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", default=_default_url(),
                        help="daemon base URL (or set REPRO_SERVE_URL)")


def _job_exit_code(payload: Dict[str, object]) -> int:
    state = payload.get("job", {}).get("state")
    return 0 if state in ("done", "queued", "running") else 1


def cmd_submit(argv: List[str]) -> int:
    from repro.harness.experiments import EXPERIMENT_REGISTRY
    from repro.serve.jobs import list_job_types

    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a job to a running serve daemon")
    parser.add_argument("job_type",
                        help=f"job type ({', '.join(list_job_types())}) "
                             f"or an experiment id (e.g. fig6)")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="assignments",
                        help="job parameter (value parsed as JSON when "
                             "possible); repeatable")
    parser.add_argument("--client", default="cli",
                        help="client identity for fair-share scheduling")
    parser.add_argument("--priority", type=int, default=0)
    parser.add_argument("--wait", nargs="?", type=float, const=600.0,
                        default=None, metavar="SECONDS",
                        help="block until the job finishes (default "
                             "600s) and print its final status")
    _add_url(parser)
    args = parser.parse_args(argv)
    try:
        params = _parse_set(args.assignments)
    except argparse.ArgumentTypeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    job_type = args.job_type
    if job_type in EXPERIMENT_REGISTRY:
        params.setdefault("experiment", job_type)
        job_type = "experiment"
    client = ServeClient(args.url)
    payload = client.submit(job_type, params, client=args.client,
                            priority=args.priority)
    job = payload["job"]
    if args.wait is not None and job["state"] not in ("done", "failed",
                                                      "cancelled"):
        payload = client.wait_for(job["id"], timeout=args.wait)
    _print_json(payload)
    return _job_exit_code(payload)


def cmd_status(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro status", description="Poll a job's state")
    parser.add_argument("job_id")
    parser.add_argument("--wait", type=float, default=0.0,
                        help="long-poll up to SECONDS for completion")
    _add_url(parser)
    args = parser.parse_args(argv)
    payload = ServeClient(args.url).status(args.job_id, wait=args.wait)
    _print_json(payload)
    return _job_exit_code(payload)


def cmd_fetch(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro fetch", description="Fetch a finished job's result")
    parser.add_argument("job_id")
    _add_url(parser)
    args = parser.parse_args(argv)
    _print_json(ServeClient(args.url).result(args.job_id))
    return 0


def cmd_cancel(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cancel", description="Cancel a queued or running job")
    parser.add_argument("job_id")
    _add_url(parser)
    args = parser.parse_args(argv)
    _print_json(ServeClient(args.url).cancel(args.job_id))
    return 0


def cmd_metrics(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Served-job counters, queue depth, cache stats")
    _add_url(parser)
    args = parser.parse_args(argv)
    _print_json(ServeClient(args.url).metrics())
    return 0


_VERBS = {
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "fetch": cmd_fetch,
    "cancel": cmd_cancel,
    "metrics": cmd_metrics,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _VERBS:
        print(f"usage: repro {{{'|'.join(_VERBS)}}} ...",
              file=sys.stderr)
        return 2
    verb, rest = argv[0], argv[1:]
    try:
        return _VERBS[verb](rest)
    except ServeError as error:
        print(json.dumps({"error": error.payload.get("error",
                                                     str(error)),
                          "status": error.status,
                          **({"retry_after": error.retry_after}
                             if error.retry_after is not None else {})},
                         indent=2, sort_keys=True),
              file=sys.stderr)
        return 3 if error.status in (429, 503) else 1
    except (ConnectionError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
