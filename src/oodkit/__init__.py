"""Out-of-distribution detection toolkit.

Small fully connected classifiers trained under three interchangeable
heads (softmax, isomax, isomaxplus) and evaluated for OOD detection with
maximum-probability, entropic, and minimum-distance scores under the
standard AUROC / TNR@TPR95 / DTACC metrics.
"""

__version__ = "0.1.0"
