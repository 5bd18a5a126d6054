"""Experiment drivers regenerating every table and figure of the paper.

Every study is an :class:`~repro.harness.experiments.ExperimentSpec`
declared as ``SPEC`` in its catalog module (``fig4``, ``fig11`` …
``catalog``) and registered in
:data:`~repro.harness.experiments.REGISTRY`.  There is one way to run
a study: ``silo-repro exp run <name> [--set key=value]`` on the command
line, or ``run_experiment(<module>.SPEC, **params)`` from Python; both
go through the generic campaign engine.

This package imports nothing on its own, so importing one submodule
(``from repro.harness.executor import Executor``) costs only that
submodule and its dependencies.
"""
