"""Table 3 — workloads.

The paper describes its five workloads qualitatively; our substitutes are
parameterised generators (the module docstring of
``repro.workloads.presets`` maps each preset to its workload).  This bench
prints each workload's memory-reference character — the properties
SafetyNet's results actually depend on — and asserts the qualitative
ordering the presets are designed around.
"""

from repro.analysis import format_table
from repro.workloads import WORKLOAD_NAMES, by_name, workload_character

from benchmarks.conftest import run_once


def test_table3_workload_character(benchmark, profile):
    def experiment():
        out = {}
        for name in WORKLOAD_NAMES:
            wl = by_name(name, num_cpus=4, scale=profile.scale, seed=1)
            out[name] = workload_character(
                wl, cpus=4, ops_per_cpu=25_000, window_instructions=25_000
            )
        return out

    character = run_once(experiment, benchmark)

    rows = []
    for name in WORKLOAD_NAMES:
        c = character[name]
        rows.append((
            name,
            f"{c['memops_per_1000']:.0f}",
            f"{c['stores_per_1000']:.0f}",
            f"{c['shared_frac_of_memops']:.2f}",
            f"{c['distinct_stored_blocks_per_window']:.0f}",
        ))
    print()
    print(format_table(
        ["workload", "memops/1k instr", "stores/1k instr",
         "shared frac", "distinct stored blocks/window"],
        rows,
        title="TABLE 3 — Workload character (synthetic substitutes)",
    ))

    # Qualitative shape assertions:
    # every workload stores 30-130 per 1000 instructions (commercial range);
    for name in WORKLOAD_NAMES:
        assert 25 < character[name]["stores_per_1000"] < 130, name
    # jbb's allocation streaming touches the most distinct stored blocks
    # (that is why it pressures the CLB first in Fig. 8);
    jbb_distinct = character["jbb"]["distinct_stored_blocks_per_window"]
    for other in ("apache", "slashcode", "oltp"):
        assert jbb_distinct > character[other][
            "distinct_stored_blocks_per_window"], other
    # barnes (scientific, phased) shares more of its accesses than jbb
    # (Java server heap traffic is mostly private).
    assert (character["barnes"]["shared_frac_of_memops"]
            > character["jbb"]["shared_frac_of_memops"])
