"""Coupled nonlinear-Schrodinger market simulator.

A method-of-lines solver for a pair of cubic Schrodinger equations over a
stock-price grid (volatility and option-price wave functions) coupled
through an adaptive Hebbian potential, integrated with an embedded
Cash-Karp 4/5 pair, plus a closed-form vanilla call baseline and a ladder
of simpler verification problems.
"""

__version__ = "0.1.0"
