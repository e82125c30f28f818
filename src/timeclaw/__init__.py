"""TimeClaw: an exploratory execution learning engine for tool-augmented
time-series agents.

The engine explores several candidate tool-use executions per task, compares
the task-valid ones under task metrics, distills the outcome into a
hierarchical external experience store, and reinjects that experience at
inference time while keeping the base model frozen.
"""

__version__ = "0.13.0"
