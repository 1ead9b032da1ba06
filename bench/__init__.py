"""The CRAC benchmark: four seeded workloads measured in the virtual and
the host clock, with per-layer attribution. See ``bench/README.md``."""
