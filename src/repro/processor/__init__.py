"""Processor model.

The paper uses a simple in-order core that would sustain one instruction
per cycle on a perfect memory system and issues blocking requests to the
cache hierarchy (their argument: an out-of-order model changes absolute
numbers, not the qualitative results).  :class:`~repro.processor.core.Core`
reproduces that model and adds SafetyNet's register checkpoints (shadow
copies taken at each checkpoint-clock edge, a conservative 100 cycles).
"""
