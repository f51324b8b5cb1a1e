"""Asyncio client of the JSON-lines service protocol.

:class:`ServiceClient` keeps one TCP connection and multiplexes any
number of in-flight requests over it: every outbound message carries a
client-side ``id`` tag, a background reader task routes tagged replies
to per-request queues, and :meth:`request` resolves when the terminal
event for its job arrives.  This is what the load-test bench uses to
hold thousands of concurrent requests over a handful of connections.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, Optional

from repro.service.jobs import TERMINAL_STATES

#: Reply events that end a request exchange.
_FINAL_EVENTS = TERMINAL_STATES + ("error",)


class ServiceClient:
    """One connection to a :class:`~repro.service.server.ServiceServer`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        # A pending exchange's queue receives ``None`` once the
        # connection is lost.
        self._queues: Dict[str, "asyncio.Queue[Optional[Dict[str, Any]]]"] = {}
        self._counter = 0
        self._closed = False
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    continue
                queue = self._queues.get(message.get("id"))
                if queue is not None:
                    queue.put_nowait(message)
        except ConnectionError:
            pass  # a reset ends the connection like EOF does
        finally:
            for queue in self._queues.values():
                queue.put_nowait(None)

    async def _send(self, payload: Dict[str, Any]) -> str:
        if self._reader_task.done():
            raise ConnectionError("service connection is closed")
        self._counter += 1
        tag = f"c{self._counter:06d}"
        payload = {"id": tag, **payload}
        self._queues[tag] = asyncio.Queue()
        async with self._write_lock:
            self._writer.write(json.dumps(payload).encode() + b"\n")
            await self._writer.drain()
        return tag

    # ------------------------------------------------------------------
    async def request(
        self,
        payload: Dict[str, Any],
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Submit one analysis request and await its terminal event.

        Intermediate events (``accepted``, ``queued``, ``running``,
        ``progress`` -- the latter three only with ``"stream": true``
        in the payload) are passed to ``on_event`` when given.  Raises
        :class:`ConnectionError` once the connection is lost.
        """
        tag = await self._send(payload)
        try:
            while True:
                event = await self._queues[tag].get()
                if event is None:
                    raise ConnectionError("service connection lost")
                if event.get("event") in _FINAL_EVENTS:
                    return event
                if on_event is not None:
                    on_event(event)
        finally:
            del self._queues[tag]

    async def control(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send a single-reply control op (ping/stats/job/cancel/shutdown)."""
        tag = await self._send(payload)
        try:
            reply = await self._queues[tag].get()
            if reply is None:
                raise ConnectionError("service connection lost")
            return reply
        finally:
            del self._queues[tag]

    # Convenience wrappers -------------------------------------------------
    async def ping(self) -> bool:
        return (await self.control({"op": "ping"})).get("event") == "pong"

    async def stats(self) -> Dict[str, Any]:
        return (await self.control({"op": "stats"}))["stats"]

    async def cancel(self, job_id: str) -> bool:
        reply = await self.control({"op": "cancel", "job": job_id})
        return bool(reply.get("ok"))

    async def shutdown(self) -> None:
        await self.control({"op": "shutdown"})
