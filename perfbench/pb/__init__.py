"""Support modules of the simulator benchmark (see perfbench/README.md)."""
