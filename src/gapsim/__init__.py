"""Exact integer simulation of gap-valued computations and their promise classes."""

# The one name bound here: perfbench/test_perfbench.py::test_layer_handles_are_modules
# asserts that gapsim.evolve is this function. Import every other name from its module.
from .evolve import evolve
