"""repro — reproduction of the IPDPS'14 coprocessor sharing-aware scheduler.

Public API highlights:

* :mod:`repro.sim` — discrete-event simulation kernel.
* :mod:`repro.phi` — Xeon Phi device model.
* :mod:`repro.mpss` — offload runtime (MPSS/COI/SCIF analogue).
* :mod:`repro.cosmic` — node-level sharing middleware.
* :mod:`repro.condor` — HTCondor analogue (ClassAds, matchmaking).
* :mod:`repro.core` — the paper's knapsack-based cluster scheduler.
* :mod:`repro.workloads` — Table-I and synthetic job generators.
* :mod:`repro.cluster` — end-to-end cluster simulation driver.
* :mod:`repro.metrics` — post-run analysis, footprint, reports.
* :mod:`repro.experiments` — regenerates every table and figure.
"""

__version__ = "1.0.0"
