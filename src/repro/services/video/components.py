"""Runtime components of the video service.

Frames are synthetic byte payloads whose *sizes* are real (they cross
the simulated links), stamped with sequence numbers so caching and
compression are observable in tests.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Generator

from ...smock import RuntimeComponent, ServiceRequest, ServiceResponse

__all__ = [
    "VideoClientComponent",
    "PackagerComponent",
    "VideoSourceComponent",
    "ViewVideoSourceComponent",
    "VIDEO_COMPONENT_CLASSES",
    "RAW_FRAME_BYTES",
    "COMPRESSED_FRAME_BYTES",
]

RAW_FRAME_BYTES = 50_000
COMPRESSED_FRAME_BYTES = 5_000


def _frame_payload(content_id: str, seq: int) -> bytes:
    seed = f"{content_id}:{seq}".encode()
    # deterministic pseudo-frame, small in memory; size is modeled on the wire
    return (seed * 8)[:64]


class VideoSourceComponent(RuntimeComponent):
    """Master copy of every piece of content."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.frames_served = 0

    def op_get_frame(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        content = req.payload.get("content", "default")
        seq = int(req.payload.get("seq", 0))
        self.frames_served += 1
        return ServiceResponse(
            payload={
                "content": content,
                "seq": seq,
                "frame": _frame_payload(content, seq),
                "compressed": False,
                "source": self.label,
            },
            size_bytes=RAW_FRAME_BYTES,
        )
        yield  # pragma: no cover - generator marker


class ViewVideoSourceComponent(RuntimeComponent):
    """Cache view: keeps recently served frames for popular content."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.cache: Dict[tuple, ServiceResponse] = {}
        self.hits = 0
        self.misses = 0

    def op_get_frame(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        key = (req.payload.get("content", "default"), int(req.payload.get("seq", 0)))
        cached = self.cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        resp = yield from self.call("RawStreamInterface", req)
        if resp.ok:
            self.cache[key] = resp
        return resp


class PackagerComponent(RuntimeComponent):
    """Transcodes a raw stream into the compressed container."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.frames_packaged = 0

    def op_get_frame(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        resp = yield from self.call("RawStreamInterface", req)
        if not resp.ok:
            return resp
        raw = resp.payload["frame"]
        packaged = zlib.compress(raw)
        self.frames_packaged += 1
        return ServiceResponse(
            payload={**resp.payload, "frame": packaged, "compressed": True},
            size_bytes=COMPRESSED_FRAME_BYTES,
        )


class VideoClientComponent(RuntimeComponent):
    """Pulls compressed frames and decodes them."""

    def op_play(self, req: ServiceRequest) -> Generator[Any, Any, ServiceResponse]:
        downstream = req.child(
            op="get_frame",
            payload={
                "content": req.payload.get("content", "default"),
                "seq": req.payload.get("seq", 0),
            },
            size_bytes=128,
        )
        resp = yield from self.call("CompressedStreamInterface", downstream)
        if not resp.ok:
            return resp
        frame = resp.payload["frame"]
        if resp.payload.get("compressed"):
            frame = zlib.decompress(frame)
        return ServiceResponse(
            payload={**resp.payload, "frame": frame, "compressed": False},
            size_bytes=256,
        )


VIDEO_COMPONENT_CLASSES = {
    "VideoClient": VideoClientComponent,
    "Packager": PackagerComponent,
    "VideoSource": VideoSourceComponent,
    "ViewVideoSource": ViewVideoSourceComponent,
}
