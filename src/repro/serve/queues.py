"""Per-tenant FIFO/priority queues with deterministic service order.

Each tenant gets its own FIFO; :meth:`RequestQueue.pop` serves the head
request with the highest priority, breaking ties by arrival time and then by
request id, so the drain order is a pure function of the admitted sequence —
no hashing, no insertion-order accidents.  The scheduler only ever touches
queue *heads*, which keeps per-tenant FIFO ordering intact while still
letting a high-priority tenant overtake between batches.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .request import Request


class RequestQueue:
    """Admitted-but-not-yet-dispatched requests, grouped by tenant."""

    def __init__(self) -> None:
        self._by_tenant: Dict[str, Deque[Request]] = {}
        #: tenants in first-seen order, so head scans are deterministic
        self._tenant_order: List[str] = []
        self._depth = 0

    @property
    def depth(self) -> int:
        return self._depth

    def __len__(self) -> int:
        return self._depth

    def push(self, request: Request) -> None:
        queue = self._by_tenant.get(request.tenant)
        if queue is None:
            queue = deque()
            self._by_tenant[request.tenant] = queue
            self._tenant_order.append(request.tenant)
        queue.append(request)
        self._depth += 1

    def _best_head(self) -> Optional[Tuple[int, float, int, str]]:
        """Service key of the next request: (-priority, arrival, id, tenant)."""
        best: Optional[Tuple[int, float, int, str]] = None
        for tenant in self._tenant_order:
            queue = self._by_tenant[tenant]
            if not queue:
                continue
            key = _head_key(queue[0], tenant)
            if best is None or key < best:
                best = key
        return best

    def peek(self) -> Optional[Request]:
        """The request :meth:`pop` would return, without removing it."""
        best = self._best_head()
        if best is None:
            return None
        return self._by_tenant[best[3]][0]

    def pop(self) -> Request:
        best = self._best_head()
        if best is None:
            raise SimulationError("pop from an empty request queue")
        request = self._by_tenant[best[3]].popleft()
        self._depth -= 1
        return request

    def pop_batch(self, limit: int) -> List[Request]:
        """Remove and return up to ``limit`` requests in service order.

        The same requests, in the same order, as ``limit`` calls to
        :meth:`pop`; with a single tenant that is a run off its FIFO.
        """
        if limit <= 0:
            raise SimulationError(f"batch limit must be positive, got {limit}")
        if len(self._tenant_order) == 1:
            take = min(limit, self._depth)
            self._depth -= take
            popleft = self._by_tenant[self._tenant_order[0]].popleft
            return [popleft() for _ in range(take)]
        batch: List[Request] = []
        while self._depth > 0 and len(batch) < limit:
            batch.append(self.pop())
        return batch


def _head_key(head: Request, tenant: str) -> Tuple[int, float, int, str]:
    """Service key of a tenant's head request: (-priority, arrival, id, tenant)."""
    return (-head.priority, head.arrival, head.request_id, tenant)
