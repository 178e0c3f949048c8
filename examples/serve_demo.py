#!/usr/bin/env python3
"""Simulation-as-a-service, end to end.

Starts an in-process serve daemon, submits the PR's acceptance demo —
two concurrent identical campaign submissions (coalesced onto one
execution), a paper figure, a cache-hit resubmission, a daemon
restart answered from the disk cache — and prints the /metrics
counters at each step. The complete lifecycle from `docs/SERVING.md`
in one script, no sockets and no files left behind.

Run:  python examples/serve_demo.py [workload] [injections]
"""

import sys
import tempfile

from repro.serve import BackgroundServer, ServeClient

WORKLOAD = sys.argv[1] if len(sys.argv) > 1 else "m88ksim"
INJECTIONS = int(sys.argv[2]) if len(sys.argv) > 2 else 6

CAMPAIGN = {
    "kinds": ["base", "srt"],
    "workloads": [WORKLOAD],
    "models": ["transient-result"],
    "injections": INJECTIONS,
    "instructions": 300,
    "warmup": 600,
}


def show_counters(client: ServeClient, label: str) -> None:
    counters = client.metrics()["counters"]
    print(f"  [{label}] accepted={counters['accepted']} "
          f"completed={counters['completed']} "
          f"coalesced={counters['coalesced']} "
          f"cache_hits={counters['cache_hits']}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serve-demo-") as workdir:
        demo(workdir)
    print(f"\ndrained cleanly; removed {workdir}")


def demo(workdir: str) -> None:
    print(f"== serve demo (workdir {workdir}) ==\n")

    with BackgroundServer(workdir=workdir, max_running=2) as daemon:
        client = ServeClient(daemon.url)
        client.ping()
        print(f"daemon listening on {daemon.url}")

        print("\n-- two concurrent identical campaign submissions --")
        first = client.submit("campaign", CAMPAIGN, client="alice")["job"]
        second = client.submit("campaign", CAMPAIGN, client="bob")["job"]
        print(f"  {first['id']} state={first['state']}")
        print(f"  {second['id']} coalesced_with={second['coalesced_with']}"
              f"  (one execution, two answers)")
        client.wait_for(first["id"])
        res1 = client.result(first["id"])["job"]["result"]
        res2 = client.result(second["id"])["job"]["result"]
        assert res1 == res2
        for stratum, stats in sorted(res1["strata"].items()):
            print(f"  {stratum}: {stats['total']} injections, "
                  f"coverage {stats['coverage']}")
        show_counters(client, "after campaign")

        print("\n-- a paper figure as a job --")
        fig = client.submit("experiment", {"experiment": "fig6",
                                           "instructions": 300,
                                           "warmup": 600})["job"]
        final = client.wait_for(fig["id"])["job"]
        print(f"  {fig['id']} -> {final['state']}")

        print("\n-- identical resubmission: served from cache --")
        again = client.submit("campaign", CAMPAIGN)["job"]
        print(f"  {again['id']} state={again['state']} "
              f"cache_hit={again['cache_hit']}  (no new simulation)")
        show_counters(client, "after resubmit")

    print("\n-- daemon restarted: the disk cache answers --")
    with BackgroundServer(workdir=workdir) as daemon:
        client = ServeClient(daemon.url)
        client.ping()
        job = client.submit("campaign", CAMPAIGN)["job"]
        print(f"  {job['id']} state={job['state']} "
              f"cache_hit={job['cache_hit']}")
        assert job["state"] == "done" and job["cache_hit"]
        show_counters(client, "fresh daemon")


if __name__ == "__main__":
    main()
