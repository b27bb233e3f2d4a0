#!/usr/bin/env python3
"""End-to-end smoke test for the limeqo_sim command-line driver.

Runs the binary (its path is the first argument) on the JOB workload and
checks the product-surface contracts: the saved matrix does not depend on
the serving thread count, a --load run resumes the saved matrix exactly, a
--checkpoint-dir run restores as a fleet restart, a restored run explores
from the restored matrix (so its exploration budget changes what it
saves), a corrupted tier manifest falls back to a cold start, and
out-of-range values, invalid option combinations and unknown options are
usage errors (exit 2).
"""

import os
import subprocess
import sys
import tempfile
import unittest

SIM = None  # set from argv in __main__

# Exploration plus a short serving phase: a few epochs, well under a second.
BASE = ["--workload=job", "--serve=2000"]


def run_sim(*args):
    return subprocess.run([SIM, *BASE, *args], capture_output=True, text=True)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class LimeqoSimSmokeTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="limeqo_sim_smoke_")
        self.tmp = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def path(self, name):
        return os.path.join(self.tmp, name)

    def run_ok(self, *args):
        result = run_sim(*args)
        self.assertEqual(result.returncode, 0,
                         f"limeqo_sim {' '.join(args)} failed:\n"
                         f"{result.stdout}\n{result.stderr}")
        return result

    def checkpoint(self, budget="0.2"):
        ckpt = self.path("ckpt")
        self.run_ok(f"--budget={budget}", f"--checkpoint-dir={ckpt}")
        self.assertTrue(os.path.exists(os.path.join(ckpt, "tier.manifest")))
        self.assertTrue(os.path.exists(os.path.join(ckpt, "shard-0.ckpt")))
        return ckpt

    def test_saved_matrix_is_independent_of_serve_threads(self):
        # At 3 serving threads the fleet's train executor gets 3 workers,
        # so with 3 shards every epoch barrier spreads over helper threads.
        for shards in (1, 3):
            saved = []
            for threads in (1, 3):
                out = self.path(f"s{shards}t{threads}.txt")
                self.run_ok("--budget=0.5", f"--shards={shards}",
                            f"--serve-threads={threads}", f"--save={out}")
                saved.append(read_bytes(out))
            self.assertTrue(saved[0] == saved[1],
                            f"saved matrices differ at 1 and 3 serving "
                            f"threads over {shards} shard(s)")

    def test_load_resumes_the_saved_matrix(self):
        # No serving phase (it would keep exploring after the load), and
        # the first run explores so the saved matrix holds censored cells.
        first, second = self.path("a.txt"), self.path("b.txt")
        self.run_ok("--serve=0", "--budget=0.3", f"--save={first}")
        result = self.run_ok("--serve=0", "--budget=0", f"--load={first}",
                             f"--save={second}")
        records = read_bytes(first).decode().splitlines()[1:]
        complete = sum(r.startswith("C ") for r in records)
        censored = sum(r.startswith("X ") for r in records)
        self.assertGreater(censored, 0)
        self.assertIn(f"resumed: {complete} complete / {censored} censored "
                      f"cells", result.stdout)
        self.assertTrue(read_bytes(first) == read_bytes(second),
                        "a loaded matrix saved again changed")

    def test_restore_is_a_fleet_restart(self):
        ckpt = self.checkpoint()
        result = self.run_ok("--budget=0", f"--restore={ckpt}")
        self.assertIn("fleet restart", result.stdout)

    def test_restored_run_explores_from_the_restored_matrix(self):
        ckpt = self.checkpoint()
        saved = {}
        for budget in ("0", "0.5"):
            out = self.path(f"restored_{budget}.txt")
            result = self.run_ok(f"--budget={budget}", f"--restore={ckpt}",
                                 f"--save={out}")
            self.assertIn("fleet restart", result.stdout)
            saved[budget] = read_bytes(out)
        self.assertTrue(saved["0"] != saved["0.5"],
                        "the restored run's exploration was discarded")

    def test_corrupted_manifest_starts_cold(self):
        ckpt = self.checkpoint()
        manifest = os.path.join(ckpt, "tier.manifest")
        data = bytearray(read_bytes(manifest))
        data[len(data) // 2] ^= 0x5A
        with open(manifest, "wb") as f:
            f.write(bytes(data))
        result = self.run_ok("--budget=0", f"--restore={ckpt}")
        self.assertIn("starting cold", result.stderr)
        self.assertNotIn("fleet restart", result.stdout)

    def test_invalid_option_combinations_exit_2(self):
        ckpt = self.checkpoint()
        matrix = self.path("m.txt")
        self.run_ok("--budget=0", f"--save={matrix}")
        for args in (["--shards=0"], ["--serve-threads=0"],
                     ["--max-retries=-1"], ["--serve=-1"], ["--shared-train"],
                     [f"--load={matrix}", f"--restore={ckpt}"],
                     ["--serve=1e3"], ["--max-retries=x2"], ["--scale=0.2x"],
                     ["--seed=abc"]):
            result = run_sim(*args)
            self.assertEqual(result.returncode, 2,
                             f"{args}: {result.stdout}\n{result.stderr}")
            self.assertIn("usage:", result.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: limeqo_sim_smoke_test.py PATH_TO_LIMEQO_SIM")
    SIM = os.path.abspath(sys.argv.pop(1))
    unittest.main()
