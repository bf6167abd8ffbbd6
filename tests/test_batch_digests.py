"""Every relational spec × engine pairing emits a pinned batch sequence.

One fixed, seeded closed-loop workload is driven through
``make_scheduler(spec, backend)`` for every shipped spec on each of the
``interpreted``, ``compiled``, ``compiled-delta``, ``sqlite`` and
``datalog`` engines that declares support for it.  The sha256 of the
emitted batch sequence is compared with a constant committed here, so a
change that claims byte-identical behaviour is checked rather than
asserted: a digest moves only with a stated reason.
"""

import hashlib
import random

import pytest

from repro.api import make_scheduler
from repro.backends import supported_backends
from repro.model.request import NO_OBJECT, Operation, Request
from repro.protocols.spec import SPEC_REGISTRY, spec_names

ENGINES = ("interpreted", "compiled", "compiled-delta", "sqlite", "datalog")

CLIENTS = 10
STEPS = 60
OPS_PER_TXN = 4
OBJECTS = 20
#: A client whose request waited this many steps aborts its transaction
#: and starts a new one, so a deadlock cannot wedge the workload.
PATIENCE = 3
SEED = 4242


def batch_sequence_digest(spec_name: str, backend: str) -> str:
    """sha256 over the batches of the fixed closed-loop workload.

    Each step every client without an outstanding request submits its
    transaction's next statement: a read or write of a random object,
    then a commit (one transaction in eight aborts instead) once
    ``OPS_PER_TXN`` statements executed.  A request still waiting
    after ``PATIENCE`` steps aborts its transaction through the
    scheduler.  The digest covers, per step, the granted request ids in
    emission order and the aborted transactions.
    """
    rng = random.Random(SEED)
    scheduler = make_scheduler(spec_name, backend)
    tas = list(range(1, CLIENTS + 1))
    done = [0] * CLIENTS
    outstanding: dict[int, int] = {}  # ta -> client
    waited = [0] * CLIENTS
    next_id, next_ta = 1, CLIENTS + 1
    digest = hashlib.sha256()
    for step in range(STEPS):
        for client in range(CLIENTS):
            ta = tas[client]
            if ta in outstanding:
                continue
            if done[client] >= OPS_PER_TXN:
                op = Operation.ABORT if rng.random() < 0.125 else Operation.COMMIT
                request = Request(next_id, ta, done[client], op, NO_OBJECT)
            else:
                op = Operation.WRITE if rng.random() < 0.5 else Operation.READ
                request = Request(
                    next_id, ta, done[client], op, rng.randrange(OBJECTS)
                )
            next_id += 1
            outstanding[ta] = client
            waited[client] = 0
            scheduler.submit(request)
        result = scheduler.step()
        granted = [request.id for request in result.qualified]
        for request in result.qualified:
            client = outstanding.pop(request.ta)
            if request.operation.is_termination:
                tas[client] = next_ta
                done[client] = 0
                next_ta += 1
            else:
                done[client] += 1
        aborted = []
        for ta, client in sorted(outstanding.items()):
            waited[client] += 1
            if waited[client] >= PATIENCE:
                scheduler.abort_transaction(ta)
                del outstanding[ta]
                aborted.append(ta)
                tas[client] = next_ta
                done[client] = 0
                next_ta += 1
        digest.update(f"{step}:{granted}:{aborted}\n".encode())
    return digest.hexdigest()


#: (spec, backend) -> sha256 of the batch sequence.  Pairings of one
#: spec agree wherever the engines are equivalent, which the matrix
#: test asserts separately; these constants pin the sequence itself.
EXPECTED = {
    ('bounded-oversell', 'datalog'):
        '472b9dc2c941956a4f80e9c52ccc48729b08ca557ea8772650ff20aa3d0fc0ca',
    ('c2pl', 'datalog'):
        'fd7ef0adf28dbc41113d4d179ce21fbe4d1153e0b95ddce6e03ad0b265ee4e97',
    ('exclusive', 'compiled'):
        'f191a5b9f65868525275a219a07c589b36fb62390e7b0290d6cad00cc2ca63bf',
    ('exclusive', 'compiled-delta'):
        'f191a5b9f65868525275a219a07c589b36fb62390e7b0290d6cad00cc2ca63bf',
    ('exclusive', 'datalog'):
        'f191a5b9f65868525275a219a07c589b36fb62390e7b0290d6cad00cc2ca63bf',
    ('exclusive', 'interpreted'):
        'f191a5b9f65868525275a219a07c589b36fb62390e7b0290d6cad00cc2ca63bf',
    ('exclusive', 'sqlite'):
        'f191a5b9f65868525275a219a07c589b36fb62390e7b0290d6cad00cc2ca63bf',
    ('fcfs', 'compiled'):
        '1a4a8e8d15b8cf68247f8b6d16dffaf831162e6780a52fca895ccf5623300436',
    ('fcfs', 'compiled-delta'):
        '1a4a8e8d15b8cf68247f8b6d16dffaf831162e6780a52fca895ccf5623300436',
    ('fcfs', 'datalog'):
        '1a4a8e8d15b8cf68247f8b6d16dffaf831162e6780a52fca895ccf5623300436',
    ('fcfs', 'interpreted'):
        '1a4a8e8d15b8cf68247f8b6d16dffaf831162e6780a52fca895ccf5623300436',
    ('fcfs', 'sqlite'):
        '1a4a8e8d15b8cf68247f8b6d16dffaf831162e6780a52fca895ccf5623300436',
    ('priority-ceiling', 'compiled'):
        'f191a5b9f65868525275a219a07c589b36fb62390e7b0290d6cad00cc2ca63bf',
    ('priority-ceiling', 'compiled-delta'):
        'f191a5b9f65868525275a219a07c589b36fb62390e7b0290d6cad00cc2ca63bf',
    ('priority-ceiling', 'datalog'):
        'f191a5b9f65868525275a219a07c589b36fb62390e7b0290d6cad00cc2ca63bf',
    ('priority-ceiling', 'interpreted'):
        'f191a5b9f65868525275a219a07c589b36fb62390e7b0290d6cad00cc2ca63bf',
    ('priority-ceiling', 'sqlite'):
        'f191a5b9f65868525275a219a07c589b36fb62390e7b0290d6cad00cc2ca63bf',
    ('read-committed', 'compiled'):
        'd97ffed8a3af7f39de4dc10634ab3d900e66a81a1810fe0a629f834583491eee',
    ('read-committed', 'compiled-delta'):
        'd97ffed8a3af7f39de4dc10634ab3d900e66a81a1810fe0a629f834583491eee',
    ('read-committed', 'datalog'):
        'd97ffed8a3af7f39de4dc10634ab3d900e66a81a1810fe0a629f834583491eee',
    ('read-committed', 'interpreted'):
        'd97ffed8a3af7f39de4dc10634ab3d900e66a81a1810fe0a629f834583491eee',
    ('read-committed', 'sqlite'):
        'd97ffed8a3af7f39de4dc10634ab3d900e66a81a1810fe0a629f834583491eee',
    ('ss2pl', 'compiled'):
        '89e360a67510fbf5dc11735816d5cde37f0d54aa8269822d1217f4c2a5b9422a',
    ('ss2pl', 'compiled-delta'):
        '89e360a67510fbf5dc11735816d5cde37f0d54aa8269822d1217f4c2a5b9422a',
    ('ss2pl', 'datalog'):
        '89e360a67510fbf5dc11735816d5cde37f0d54aa8269822d1217f4c2a5b9422a',
    ('ss2pl', 'interpreted'):
        '89e360a67510fbf5dc11735816d5cde37f0d54aa8269822d1217f4c2a5b9422a',
    ('ss2pl', 'sqlite'):
        '89e360a67510fbf5dc11735816d5cde37f0d54aa8269822d1217f4c2a5b9422a',
    ('ss2pl-listing1', 'compiled'):
        '89e360a67510fbf5dc11735816d5cde37f0d54aa8269822d1217f4c2a5b9422a',
    ('ss2pl-listing1', 'compiled-delta'):
        '89e360a67510fbf5dc11735816d5cde37f0d54aa8269822d1217f4c2a5b9422a',
    ('ss2pl-listing1', 'datalog'):
        '89e360a67510fbf5dc11735816d5cde37f0d54aa8269822d1217f4c2a5b9422a',
    ('ss2pl-listing1', 'interpreted'):
        '89e360a67510fbf5dc11735816d5cde37f0d54aa8269822d1217f4c2a5b9422a',
    ('ss2pl-listing1', 'sqlite'):
        '89e360a67510fbf5dc11735816d5cde37f0d54aa8269822d1217f4c2a5b9422a',
}


def _pairings():
    return [
        (spec, backend)
        for spec in spec_names()
        for backend in supported_backends(SPEC_REGISTRY[spec])
        if backend in ENGINES
    ]


def test_every_pairing_is_pinned():
    assert sorted(_pairings()) == sorted(EXPECTED)


@pytest.mark.parametrize("spec_name,backend", _pairings())
def test_batch_sequence_digest(spec_name, backend):
    assert batch_sequence_digest(spec_name, backend) == EXPECTED[
        (spec_name, backend)
    ]
