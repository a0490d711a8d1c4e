"""Seeded size sweep: each case grows the size of an input, not its
values, and runs the command line on it in a child process under an
address-space cap, with one BLAS thread.  The judge knows nothing of the
library: the exit code is the one the case expects, stderr is empty or
one line starting ``error:``, stdout is what the case expects, and no
``MemoryError`` escapes.  A search that would exhaust the cap must stop
at its own bound first.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 10
MEMORY_CAP = 1 << 30  # bytes of address space for each child process

# the child sets its own cap: a preexec_fn would run Python between
# fork and exec in a test process that may have threads
RUN_CAPPED = f"""
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard == resource.RLIM_INFINITY or hard > {MEMORY_CAP}:
    resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_CAP}, hard))
from stringcalc.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _chain(rng, atoms):
    """A presentation of rules ``A_i -> A_(i+1)`` in seeded order: ``rate``
    from the first atom to the last meets more states than the cap holds
    at ``--nmax 3``, since each state holds a count per atom."""
    names = [f"A{i:04d}" for i in range(atoms)]
    rules = [{"from": [a], "to": [b]} for a, b in zip(names, names[1:])]
    rng.shuffle(rules)
    return ({"atoms": names, "rules": rules},
            ["rate", "{}", names[0], names[-1], "--nmax", "3",
             "--max-steps", "3000"])


def _snake(rng, yanks):
    """A JSON diagram of *yanks* cups and caps, each yank of a seeded
    chirality, on one wire of a seeded type: ``normalize`` yanks it to
    that wire, a normal form with no nodes."""
    base, z = rng.choice("ab"), rng.randint(-1, 1)

    def text(order):  # the type b^order as a string
        return base + (".L" * order if order >= 0 else ".R" * -order)

    nodes, edges, end = [], [], (-1, 0)  # end: the port carrying the wire
    for i in range(0, 2 * yanks, 2):
        # the wire enters the cap at port 0 and leaves the cup at port 1
        # in (wire @ cup) >> (cap @ wire), and the other way round in
        # (cup @ wire) >> (wire @ cap)
        wire = rng.randrange(2)
        legs = [z, z + 1] if wire == 0 else [z - 1, z]
        nodes += [{"id": i, "kind": "cup", "name": "", "dom": [],
                   "cod": [text(x) for x in reversed(legs)]},
                  {"id": i + 1, "kind": "cap", "name": "",
                   "dom": [text(x) for x in legs], "cod": []}]
        edges += [[*end, i + 1, wire], [i, wire, i + 1, 1 - wire]]
        end = (i, 1 - wire)
    return ({"types": {base: True}, "inputs": [text(z)], "outputs": [text(z)],
             "nodes": nodes, "edges": edges + [[*end, -2, 0]]},
            ["normalize", "{}"])


def _no_nodes(out):
    return json.loads(out)["nodes"] == []


# each case builds its input and the arguments that read it, "{}" for
# the input's path, and names the exit code it owes and what it prints
@pytest.mark.parametrize("build, code, printed", [
    pytest.param(lambda rng: _chain(rng, 1000), 4, "".__eq__,
                 id="chain-1000-atoms"),
    pytest.param(lambda rng: _snake(rng, 20000), 0, _no_nodes,
                 id="snake-40000-nodes"),
])
def test_a_large_input_stops_at_a_bound_not_at_the_memory_cap(
        build, code, printed, tmp_path):
    data, argv = build(random.Random(SEED))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", RUN_CAPPED,
         *(str(path) if a == "{}" else a for a in argv)],
        env=env, capture_output=True, text=True, timeout=120)
    assert "MemoryError" not in done.stderr
    assert done.returncode == code, done.stderr
    assert done.stderr == "" or done.stderr.startswith("error:") and \
        done.stderr.count("\n") == 1, done.stderr
    assert printed(done.stdout), done.stdout[:200]
