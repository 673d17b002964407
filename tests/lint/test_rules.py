"""Fixture tests: every reprolint rule fires on bad code, stays quiet on good.

Each rule gets at least one failing snippet (proving the rule detects
the bug class that motivated it) and a matching clean snippet (proving
the sanctioned idiom passes).  Paths are synthetic but must land inside
the rule's patrol area — the same fnmatch patterns production uses.
"""

import textwrap

import pytest

from repro.lint import RULES, lint_source

pytestmark = pytest.mark.lint


def violations(source, path, rule=None):
    found = lint_source(textwrap.dedent(source), path)
    if rule is not None:
        found = [v for v in found if v.rule == rule]
    return found


def rules_fired(source, path):
    return {v.rule for v in lint_source(textwrap.dedent(source), path)}


class TestR1NoNondeterminism:
    PATH = "src/repro/sim/example.py"

    def test_hash_builtin_fires(self):
        # The PR 2 bug class: hash()-derived seeds vary per process.
        bad = "seed = abs(hash((n, p))) % 2**63\n"
        assert len(violations(bad, self.PATH, "R1")) == 1

    def test_hash_allowed_inside_dunder_hash(self):
        good = """
        class Key:
            def __hash__(self) -> int:
                return hash((self.a, self.b))
        """
        assert violations(good, self.PATH, "R1") == []

    def test_bare_random_module_call_fires(self):
        bad = "import random\nx = random.random()\n"
        assert len(violations(bad, self.PATH, "R1")) == 1

    def test_seeded_random_instance_is_clean(self):
        good = "import random\nrng = random.Random(42)\n"
        assert violations(good, self.PATH, "R1") == []

    def test_unseeded_random_instance_fires(self):
        assert len(violations("import random\nr = random.Random()\n", self.PATH, "R1")) == 1

    def test_legacy_numpy_global_state_fires(self):
        bad = """
        import numpy as np
        np.random.seed(0)
        state = np.random.RandomState(0)
        draw = np.random.random(4)
        """
        assert len(violations(bad, self.PATH, "R1")) == 3

    def test_default_rng_is_clean(self):
        good = "import numpy as np\nrng = np.random.default_rng(seed)\n"
        assert violations(good, self.PATH, "R1") == []

    def test_set_iteration_fires(self):
        # The PR 1 bug class: set order is PYTHONHASHSEED-dependent.
        bad = "out = [f(x) for x in {compute(a), compute(b)}]\n"
        assert len(violations(bad, self.PATH, "R1")) == 1

    def test_list_of_set_fires(self):
        bad = "order = list(set(items))\n"
        assert len(violations(bad, self.PATH, "R1")) == 1

    def test_sorted_set_is_clean(self):
        good = "order = sorted(set(items))\nfor x in sorted({a, b}):\n    f(x)\n"
        assert violations(good, self.PATH, "R1") == []

    def test_unpatrolled_path_is_ignored(self):
        bad = "seed = hash((n, p))\n"
        assert violations(bad, "src/repro/analysis/example.py", "R1") == []

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/solvers.py",
            "src/repro/theory/allocation.py",
            "src/repro/net/radio.py",
            "src/repro/testbed/pertable.py",
        ],
    )
    def test_solver_theory_and_physics_layers_are_patrolled(self, path):
        bad = "seed = hash((n, p))\n"
        assert len(violations(bad, path, "R1")) == 1


class TestR2SansIo:
    PATH = "src/repro/service/engine.py"

    @pytest.mark.parametrize(
        "stmt",
        [
            "import asyncio",
            "import socket",
            "import time",
            "import os",
            "from os import path",
            "from asyncio import sleep",
        ],
    )
    def test_io_import_fires(self, stmt):
        assert len(violations(stmt + "\n", self.PATH, "R2")) == 1

    def test_pure_imports_are_clean(self):
        good = "import hmac\nimport math\nimport numpy as np\nfrom repro.core import session\n"
        assert violations(good, self.PATH, "R2") == []

    def test_core_is_patrolled_but_drivers_are_not(self):
        bad = "import asyncio\n"
        assert len(violations(bad, "src/repro/core/session.py", "R2")) == 1
        # peer.py is a driver: asyncio is its job.
        assert violations(bad, "src/repro/service/peer.py", "R2") == []


class TestR3MonotonicClock:
    PATH = "src/repro/store/anything.py"

    def test_duration_arithmetic_fires(self):
        # The store/queue.py lease-expiry bug class this PR fixed.
        bad = "import time\nage = time.time() - mtime\n"
        assert len(violations(bad, self.PATH, "R3")) == 1

    def test_deadline_comparison_fires(self):
        bad = "import time\nwhile time.time() < deadline:\n    poll()\n"
        assert len(violations(bad, self.PATH, "R3")) == 1

    def test_timestamp_use_is_clean(self):
        good = "import time\nmeta = {'claimed_at': time.time()}\n"
        assert violations(good, self.PATH, "R3") == []

    def test_monotonic_arithmetic_is_clean(self):
        good = "import time\nelapsed = time.monotonic() - t0\nd = time.perf_counter() - t1\n"
        assert violations(good, self.PATH, "R3") == []

    def test_scripts_are_patrolled(self):
        bad = "import time\nprint(time.time() - t0)\n"
        assert len(violations(bad, "scripts/run_something.py", "R3")) == 1


class TestR4DurableWrite:
    PATH = "src/repro/store/example.py"

    def test_naked_rewrite_fires(self):
        bad = """
        def save(path, payload):
            with open(path, "w") as f:
                f.write(payload)
        """
        assert len(violations(bad, self.PATH, "R4")) == 1

    def test_append_without_fsync_fires(self):
        bad = """
        def append(path, line):
            with open(path, "ab") as f:
                f.write(line)
                f.flush()
        """
        assert len(violations(bad, self.PATH, "R4")) == 1

    def test_write_text_fires(self):
        bad = """
        def save(path, payload):
            path.write_text(payload)
        """
        assert len(violations(bad, self.PATH, "R4")) == 1

    def test_temp_fsync_rename_is_clean(self):
        good = """
        import os

        def save(path, tmp, payload):
            with open(tmp, "wb") as f:
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        """
        assert violations(good, self.PATH, "R4") == []

    def test_append_fsync_is_clean(self):
        good = """
        import os

        def append(path, line):
            with open(path, "a+b") as f:
                f.write(line)
                f.flush()
                os.fsync(f.fileno())
        """
        assert violations(good, self.PATH, "R4") == []

    def test_reads_are_clean(self):
        good = """
        def load(path):
            with open(path, "r", encoding="utf-8") as f:
                return f.read()
        """
        assert violations(good, self.PATH, "R4") == []

    def test_sqlite_connect_without_full_sync_fires(self):
        # WAL's default synchronous=NORMAL can lose acknowledged
        # COMMITs on power failure — the store promises it can't.
        bad = """
        import sqlite3

        def connect(path):
            conn = sqlite3.connect(path)
            conn.execute("PRAGMA journal_mode=WAL")
            return conn
        """
        assert len(violations(bad, self.PATH, "R4")) == 1

    def test_sqlite_connect_with_full_sync_is_clean(self):
        good = """
        import sqlite3

        def connect(path):
            conn = sqlite3.connect(path)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=FULL")
            return conn
        """
        assert violations(good, self.PATH, "R4") == []

    def test_sqlite_pragma_in_another_function_does_not_excuse(self):
        bad = """
        import sqlite3

        def harden(conn):
            conn.execute("PRAGMA synchronous=FULL")

        def connect(path):
            return sqlite3.connect(path)
        """
        assert len(violations(bad, self.PATH, "R4")) == 1

    def test_only_store_is_patrolled(self):
        bad = "def save(p, d):\n    open(p, 'w').write(d)\n"
        assert violations(bad, "src/repro/analysis/report.py", "R4") == []


class TestR5SeedProvenance:
    PATH = "src/repro/sim/example.py"

    def test_entropy_default_rng_fires(self):
        bad = "import numpy as np\nrng = np.random.default_rng()\n"
        assert len(violations(bad, self.PATH, "R5")) == 1

    def test_entropy_seed_sequence_fires(self):
        bad = "import numpy as np\nss = np.random.SeedSequence()\n"
        assert len(violations(bad, self.PATH, "R5")) == 1

    def test_untraceable_seed_value_fires(self):
        bad = "import numpy as np\nrng = np.random.default_rng(counter + offset)\n"
        assert len(violations(bad, self.PATH, "R5")) == 1

    def test_seed_sequence_spawn_is_clean(self):
        good = """
        import numpy as np
        ss = np.random.SeedSequence(entropy=7, spawn_key=(1, 2))
        rng = np.random.default_rng(ss)
        child = np.random.default_rng(ss.spawn(1)[0])
        """
        assert violations(good, self.PATH, "R5") == []

    def test_named_seed_and_literal_are_clean(self):
        good = """
        import numpy as np
        a = np.random.default_rng(0)
        b = np.random.default_rng(config.seed)
        c = np.random.default_rng([loss_seed, tag])
        """
        assert violations(good, self.PATH, "R5") == []

    def test_typing_generator_annotation_is_ignored(self):
        good = "def f(g: Generator[int, None, None]) -> None:\n    pass\n"
        assert violations(good, self.PATH, "R5") == []


class TestR6TypedErrors:
    PATH = "src/repro/service/example.py"

    def test_bare_except_fires(self):
        bad = """
        def recv():
            try:
                return decode()
            except:
                return None
        """
        assert len(violations(bad, self.PATH, "R6")) == 1

    def test_generic_raise_fires(self):
        bad = "def check(ok):\n    if not ok:\n        raise Exception('bad frame')\n"
        assert len(violations(bad, self.PATH, "R6")) == 1

    def test_runtime_error_raise_fires(self):
        # RuntimeError is ServiceError's base: raising it directly
        # reaches the peer as AbortCode.INTERNAL.
        bad = "raise RuntimeError('oops')\n"
        assert len(violations(bad, self.PATH, "R6")) == 1

    def test_taxonomy_raise_is_clean(self):
        good = """
        from repro.service.errors import ProtocolViolation

        def check(ok):
            if not ok:
                raise ProtocolViolation("unexpected frame")
        """
        assert violations(good, self.PATH, "R6") == []

    def test_narrow_except_is_clean(self):
        good = """
        def recv():
            try:
                return decode()
            except ValueError:
                return None
        """
        assert violations(good, self.PATH, "R6") == []

    def test_only_service_is_patrolled(self):
        assert violations("raise Exception('x')\n", "src/repro/sim/engine.py", "R6") == []


class TestSuppressions:
    def test_same_line_disable_suppresses_one_rule(self):
        src = "seed = hash(key)  # reprolint: disable=R1\n"
        assert violations(src, "src/repro/sim/example.py") == []

    def test_disable_all(self):
        src = "import time\nd = time.time() - t0  # reprolint: disable=all\n"
        assert violations(src, "src/repro/store/x.py") == []

    def test_disable_wrong_rule_does_not_suppress(self):
        src = "seed = hash(key)  # reprolint: disable=R3\n"
        assert len(violations(src, "src/repro/sim/example.py", "R1")) == 1

    def test_disable_governs_only_its_line(self):
        src = (
            "seed = hash(key)  # reprolint: disable=R1\n"
            "other = hash(key)\n"
        )
        found = violations(src, "src/repro/sim/example.py", "R1")
        assert [v.line for v in found] == [2]


class TestParseFailure:
    def test_syntax_error_is_a_finding_not_a_crash(self):
        found = violations("def broken(:\n", "src/repro/sim/x.py")
        assert [v.rule for v in found] == ["E0"]


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert sorted(RULES) == ["R1", "R2", "R3", "R4", "R5", "R6"]

    def test_every_rule_has_metadata(self):
        for rule in RULES.values():
            assert rule.name and rule.rationale and rule.patrols
