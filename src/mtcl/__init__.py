"""Exemplar-free continual learning for answer classification.

A student classifier is trained over a sequence of tasks under three
supervision signals: hard labels, distillation from the frozen previous
model, and distillation from a pluggable general-knowledge teacher.
The signal weights are set once per task from measured teacher
accuracies and the cumulative class-imbalance ratio.
"""

__version__ = "0.1.0"
