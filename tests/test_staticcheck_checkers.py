"""Per-checker positive/negative fixtures, inline: gate dominance on
branches/loops/aliases (persist-order), taint propagation and the
sorted() launder (det-taint), and alias-aware escape detection
(pm-escape)."""

import textwrap

import pytest

from repro.errors import LintError
from repro.staticcheck import all_rules, check_source

STRUCTURES = "src/repro/structures/fixture.py"
SIM = "src/repro/sim/fixture.py"
TOOLS = "src/repro/tools/fixture.py"


#: The flow rules this file covers; the AST rules sharing the registry
#: (e.g. sim-determinism on ``import time``) are tested in test_lint.py.
FLOW_RULES = ("persist-order", "det-taint", "pm-escape")


def findings_for(source, path, selected=FLOW_RULES):
    return [(f.rule_id, f.lineno)
            for f in check_source(path, textwrap.dedent(source),
                                  selected=selected)]


def test_checker_catalogue_is_registered():
    rules = all_rules()
    assert {"persist-order", "det-taint", "pm-escape"} <= set(rules)
    for rule_obj in rules.values():
        assert rule_obj.summary


def test_unknown_selected_checker_raises():
    with pytest.raises(LintError):
        check_source("x.py", "pass\n", selected=["no-such-checker"])


# -- persist-order ----------------------------------------------------------

def test_persist_ungated_store_is_flagged():
    source = """
        class S:
            def put(self, k, v):
                self._mem.write_u64(k, v)
    """
    assert findings_for(source, STRUCTURES) == [("persist-order", 4)]


def test_persist_gated_store_is_clean():
    source = """
        class S:
            def put(self, k, v):
                self._tx.begin(k)
                self._mem.write_u64(k, v)
                self._tx.end()
    """
    assert findings_for(source, STRUCTURES) == []


def test_persist_gate_on_one_branch_does_not_dominate():
    source = """
        class S:
            def put(self, k, v, durable):
                if durable:
                    self._tx.begin(k)
                self._mem.write_u64(k, v)
    """
    assert findings_for(source, STRUCTURES) == [("persist-order", 6)]


def test_persist_gate_on_both_branches_dominates():
    source = """
        class S:
            def put(self, k, v, fast):
                if fast:
                    self._tx.begin(k)
                else:
                    self._tx.begin_tx(k)
                self._mem.write_u64(k, v)
                self._tx.end()
    """
    assert findings_for(source, STRUCTURES) == []


def test_persist_with_transaction_gates_the_body():
    source = """
        class S:
            def put(self, k, v):
                with self._tx.transaction():
                    self._mem.write_u64(k, v)
    """
    assert findings_for(source, STRUCTURES) == []


def test_persist_store_after_with_block_is_flagged():
    source = """
        class S:
            def put(self, k, v):
                with self._tx.transaction():
                    self._mem.write_u64(k, v)
                self._mem.write_u64(0, k)
    """
    assert findings_for(source, STRUCTURES) == [("persist-order", 6)]


def test_persist_wal_append_opens_the_gate():
    source = """
        class S:
            def put(self, k, v):
                self._wal.append(k, v)
                self._mem.write_u64(k, v)
    """
    assert findings_for(source, STRUCTURES) == []


def test_persist_commit_closes_the_gate():
    source = """
        class S:
            def put(self, k, v):
                self._tx.begin(k)
                self._mem.write_u64(k, v)
                self._tx.commit()
                self._mem.write_u64(0, k)
    """
    assert findings_for(source, STRUCTURES) == [("persist-order", 7)]


def test_persist_exception_handler_trusts_no_gate():
    source = """
        class S:
            def put(self, k, v):
                try:
                    self._tx.begin(k)
                    self._mem.write_u64(k, v)
                except KeyError:
                    self._mem.write_u64(8, k)
                self._tx.end()
    """
    assert findings_for(source, STRUCTURES) == [("persist-order", 8)]


def test_persist_bound_store_alias_is_tracked():
    source = """
        class S:
            def put(self, k, v):
                write = self._write_u64
                write(k, v)
    """
    assert findings_for(source, STRUCTURES) == [("persist-order", 5)]


def test_persist_loop_keeps_gate_over_back_edge():
    source = """
        class S:
            def fill(self, n):
                self._tx.begin(0)
                for i in range(n):
                    self._mem.write_u64(i, i)
                self._tx.end()
    """
    assert findings_for(source, STRUCTURES) == []


def test_persist_scoped_to_structures_and_baselines():
    source = """
        class S:
            def put(self, k, v):
                self._mem.write_u64(k, v)
    """
    assert findings_for(source, "src/repro/core/fixture.py") == []
    assert findings_for(source,
                        "src/repro/baselines/fixture.py") \
        == [("persist-order", 4)]


def test_persist_suppression_uses_shared_syntax():
    source = (
        "class S:\n"
        "    def put(self, k, v):\n"
        "        self._mem.write_u64(k, v)"
        "  # lint: ignore[persist-order]\n"
    )
    assert check_source(STRUCTURES, source) == []


# -- det-taint --------------------------------------------------------------

def test_taint_flows_through_assignments():
    source = """
        import time

        def drive(clock):
            start = time.time()
            delay = start * 2
            clock.advance(delay)
    """
    assert findings_for(source, SIM) == [("det-taint", 7)]


def test_taint_direct_source_argument():
    source = """
        import time

        def drive(clock):
            clock.advance(time.time())
    """
    assert findings_for(source, SIM) == [("det-taint", 5)]


def test_taint_os_urandom_into_rng_seed():
    source = """
        import os

        def reseed(rng):
            raw = os.urandom(8)
            rng.seed(raw)
    """
    assert findings_for(source, SIM) == [("det-taint", 6)]


def test_taint_id_into_scheduler():
    source = """
        def plan(scheduler, obj):
            token = id(obj)
            scheduler.schedule(token)
    """
    assert findings_for(source, SIM) == [("det-taint", 4)]


def test_taint_seed_keyword_is_a_sink_anywhere():
    source = """
        import time

        def boot(machine_cls):
            return machine_cls(seed=time.time_ns())
    """
    assert findings_for(source, SIM) == [("det-taint", 5)]


def test_taint_set_iteration_order():
    source = """
        def replay(events, link):
            pending = set(events)
            for message in pending:
                link.send(message)
    """
    assert findings_for(source, SIM) == [("det-taint", 5)]


def test_taint_sorted_launders_iteration_order():
    source = """
        def replay(events, link):
            pending = set(events)
            for message in sorted(pending):
                link.send(message)
    """
    assert findings_for(source, SIM) == []


def test_taint_sorted_does_not_launder_value_taint():
    source = """
        import time

        def drive(clock):
            stamps = [time.time()]
            for stamp in sorted(stamps):
                clock.advance(stamp)
    """
    assert findings_for(source, SIM) == [("det-taint", 7)]


def test_taint_reassignment_kills_the_fact():
    source = """
        import time

        def drive(clock):
            stamp = time.time()
            stamp = 0
            clock.advance(stamp)
    """
    assert findings_for(source, SIM) == []


def test_taint_untainted_sink_arguments_are_clean():
    source = """
        def drive(clock, sim_clock):
            clock.advance(sim_clock.now() * 2)

        def reseed(rng, seed):
            rng.seed(seed)
    """
    assert findings_for(source, SIM) == []


def test_taint_sanctioned_wrapper_modules_are_exempt():
    source = """
        import time

        def drive(clock):
            clock.advance(time.time())
    """
    assert findings_for(source, "src/repro/sim/rng.py") == []
    assert findings_for(source, "src/repro/sim/clock.py") == []


# -- pm-escape --------------------------------------------------------------

def test_escape_public_return_is_flagged():
    source = """
        from repro.pm.device import PmDevice

        def open_pool(path):
            device = PmDevice(path, size_bytes=64)
            return device
    """
    assert findings_for(source, TOOLS) == [("pm-escape", 6)]


def test_escape_private_return_is_clean():
    source = """
        from repro.pm.device import PmDevice

        def _open_pool(path):
            device = PmDevice(path, size_bytes=64)
            return device
    """
    assert findings_for(source, TOOLS) == []


def test_escape_wrapped_return_is_clean():
    source = """
        from repro.mem.accessor import RawAccessor
        from repro.pm.device import PmDevice

        def open_pool(path):
            device = PmDevice(path, size_bytes=64)
            return RawAccessor(device)
    """
    assert findings_for(source, TOOLS) == []


def test_escape_public_attribute_is_flagged():
    source = """
        from repro.pm.device import PmDevice

        class Pool:
            def open(self, path):
                self.device = PmDevice(path, size_bytes=64)
    """
    assert findings_for(source, TOOLS) == [("pm-escape", 6)]


def test_escape_private_attribute_is_clean():
    source = """
        from repro.pm.device import PmDevice

        class Pool:
            def open(self, path):
                self._device = PmDevice(path, size_bytes=64)
    """
    assert findings_for(source, TOOLS) == []


def test_escape_follows_aliases_to_foreign_calls():
    source = """
        from repro.pm.device import PmDevice
        from repro.workloads.ycsb import run_workload

        def benchmark(path):
            device = PmDevice(path, size_bytes=64)
            handle = device
            run_workload(handle)
    """
    assert findings_for(source, TOOLS) == [("pm-escape", 8)]


def test_escape_owner_module_handoff_is_clean():
    source = """
        from repro.libpax.machine import HostMachine
        from repro.pm.device import PmDevice

        def build(path):
            device = PmDevice(path, size_bytes=64)
            return HostMachine(pm_device=device)
    """
    assert findings_for(source, TOOLS) == []


def test_escape_reassignment_clears_the_alias():
    source = """
        from repro.pm.device import PmDevice
        from repro.workloads.ycsb import run_workload

        def benchmark(path, accessor):
            handle = PmDevice(path, size_bytes=64)
            handle = accessor
            run_workload(handle)
    """
    assert findings_for(source, TOOLS) == []


def test_escape_owner_modules_are_exempt():
    source = """
        from repro.pm.device import PmDevice

        def open_pool(path):
            device = PmDevice(path, size_bytes=64)
            return device
    """
    assert findings_for(source, "src/repro/mem/fixture.py") == []
    assert findings_for(source, "src/repro/pm/fixture.py") == []
