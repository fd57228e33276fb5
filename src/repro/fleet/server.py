"""``repro serve``: the fleet job server.

A JSON-lines protocol over TCP, chosen for zero dependencies and
trivially scriptable clients (``nc``, a five-line Python loop, or
:mod:`repro.fleet.client`).  Each connection carries one request line;
the server streams response lines and closes:

* ``{"op": "ping"}`` → ``{"type": "pong", ...}``
* ``{"op": "stats"}`` → ``{"type": "stats", ...}`` (pool + cache counters)
* ``{"op": "submit", "jobs": [...]}`` → one ``{"type": "result", ...}``
  line per job **as each completes** (cache hits first, then pool
  completions — the streaming/async half of the contract), terminated
  by a ``{"type": "summary", ...}`` line, the one
  :func:`~repro.fleet.pool.summarize` makes for ``run_sweep`` too.  A
  job whose worker dies gets an ``ok: false`` record, so the stream
  always ends.
* ``{"op": "shutdown"}`` → ``{"type": "bye"}`` and the server stops

Connections are handled on daemon threads over one shared
:class:`~repro.fleet.pool.FleetRunner`, so concurrent sweeps share the
worker pool, the result cache and the in-flight dedupe table: two
clients submitting the same job simulate it once.
"""

from __future__ import annotations

import json
import socketserver
import threading
import time
from typing import Any, Dict, Optional

from .pool import FleetRunner, summarize

#: default port; "OSM1" on a phone pad has nothing on just picking one
DEFAULT_PORT = 7341


class _Handler(socketserver.StreamRequestHandler):
    def _send(self, payload: Dict[str, Any]) -> None:
        self.wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
        self.wfile.flush()

    def handle(self) -> None:
        server: "FleetServer" = self.server  # type: ignore[assignment]
        line = self.rfile.readline()
        if not line.strip():
            return
        try:
            request = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            self._send({"type": "error", "message": f"bad request JSON: {exc}"})
            return
        op = request.get("op")
        try:
            if op == "ping":
                self._send({"type": "pong", "workers": server.runner.workers})
            elif op == "stats":
                self._send(server.stats_payload())
            elif op == "submit":
                jobs = request.get("jobs")
                if not isinstance(jobs, list) or not jobs:
                    raise ValueError("submit needs a non-empty 'jobs' list")
                start = time.perf_counter()
                records = []
                for record in server.runner.submit(jobs):
                    records.append(record)
                    record["progress"] = {"completed": len(records),
                                          "total": len(jobs)}
                    self._send(record)
                self._send(summarize(records, time.perf_counter() - start))
            elif op == "shutdown":
                self._send({"type": "bye"})
                threading.Thread(target=server.shutdown, daemon=True).start()
            else:
                raise ValueError(f"unknown op {op!r}")
        except ValueError as exc:
            self._send({"type": "error", "message": str(exc)})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass


class FleetServer(socketserver.ThreadingTCPServer):
    """Threaded JSON-lines fleet server over a shared runner."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 runner: Optional[FleetRunner] = None, workers: int = 2,
                 cache_dir: Optional[str] = None, start_method: str = "spawn"):
        self.runner = runner or FleetRunner(
            workers=workers, cache_dir=cache_dir, start_method=start_method)
        super().__init__((host, port), _Handler)

    @property
    def address(self):
        """``(host, port)`` actually bound (port 0 resolves here)."""
        return self.server_address[:2]

    def stats_payload(self) -> Dict[str, Any]:
        cache = self.runner.cache
        return {
            "type": "stats",
            "workers": self.runner.workers,
            "executed": self.runner.executed,
            "errors": self.runner.errors,
            "cache": {
                "persistent": cache.persistent,
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
            },
        }

    def server_close(self) -> None:  # also tear down the worker pool
        super().server_close()
        self.runner.close()


def serve(host: str = "127.0.0.1", port: int = DEFAULT_PORT, workers: int = 2,
          cache_dir: Optional[str] = None, start_method: str = "spawn",
          announce=print) -> None:
    """Run a fleet server until shutdown (op or KeyboardInterrupt)."""
    server = FleetServer(host=host, port=port, workers=workers,
                         cache_dir=cache_dir, start_method=start_method)
    bound_host, bound_port = server.address
    announce(f"repro fleet: serving on {bound_host}:{bound_port} "
             f"({workers} workers, cache "
             f"{cache_dir if cache_dir else 'in-memory'})")
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.server_close()
