"""Fault-detection mechanisms (paper Table 1, §5.1).

SafetyNet deliberately decouples *recovery* from *detection*: because
validation is pipelined and the recovery point trails execution by
hundreds of thousands of cycles, the system can afford strong, slow
detectors — "longer codes are inherently stronger" — where conventional
designs must check before forwarding.

This package models that detection layer:

* :mod:`repro.detection.codes` — error-detection codes (parity, SECDED,
  CRC-8/16/32) as (coverage, check-latency, overhead) triples;
* :mod:`repro.detection.checker` — per-node message checkers that detect
  corrupted and misrouted (illegal) messages and report faults;
* :mod:`repro.detection.faults` — the corresponding injectors: corrupt a
  message in a switch buffer, or misroute it to the wrong endpoint.
"""
