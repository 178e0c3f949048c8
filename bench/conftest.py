"""Benchmark tests import the simulator from this checkout's ``src/``."""

from bench import use_checkout_sources

use_checkout_sources()
