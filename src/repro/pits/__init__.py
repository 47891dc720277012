"""Protocol pits: the data and state models shared by every fuzzer.

The paper keeps Pit files identical across fuzzers for fairness; likewise
each target registers a single ``state_model()`` factory used by
Peach-parallel, SPFuzz and CMFuzz alike. The factory is part of the
target's registration (``get_target(name).state_model``), so a target's
pit ships in (or next to) its own directory.
"""
