//! A minimal blocking client for the framed protocol.
//!
//! [`SegClient`] speaks one request/response exchange at a time over a
//! persistent TCP connection — exactly the discipline the server's
//! per-connection thread expects. It exists for the loopback tests, the
//! load generator, and as reference wire usage for other-language clients.

use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    WireProgress, WireSegmentRequest, WireSegmentResponse, WireStatsRequest, WireStatsResponse,
};
use crate::wire::{
    read_frame_into, write_frame, WireError, WireResult, DEFAULT_MAX_FRAME_BYTES, FRAME_PROGRESS,
    FRAME_REQUEST, FRAME_RESPONSE, FRAME_STATS_REQUEST, FRAME_STATS_RESPONSE,
};

/// A blocking connection to a segmentation server.
pub struct SegClient {
    stream: TcpStream,
    max_frame_bytes: usize,
    // Reused across responses, so a long-lived client pays for its
    // largest response frame once instead of allocating per exchange.
    read_buf: Vec<u8>,
}

impl SegClient {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> WireResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_buf: Vec::new(),
        })
    }

    /// Caps the frame size this client will send or accept.
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Bounds how long [`segment`](Self::segment) waits for a response
    /// frame (`None` waits forever).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the socket rejects the timeout.
    pub fn read_timeout(self, timeout: Option<Duration>) -> WireResult<Self> {
        self.stream.set_read_timeout(timeout)?;
        Ok(self)
    }

    /// Sends one request and blocks for its response frame.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`]s for transport or framing failures, including
    /// [`WireError::Truncated`] if the server hangs up without responding,
    /// and [`WireError::InvalidField`] for a configuration value too wide
    /// for its wire field (see [`WireSegmentRequest::encode`]).
    /// Typed *service* failures (busy, deadline, invalid) arrive as
    /// `Ok(response)` with the matching [`WireStatus`](crate::WireStatus).
    pub fn segment(&mut self, request: &WireSegmentRequest) -> WireResult<WireSegmentResponse> {
        write_frame(
            &mut self.stream,
            FRAME_REQUEST,
            &request.encode()?,
            self.max_frame_bytes,
        )?;
        self.stream.flush()?;
        match read_frame_into(&mut self.stream, self.max_frame_bytes, &mut self.read_buf)? {
            Some(FRAME_RESPONSE) => WireSegmentResponse::decode(&self.read_buf),
            Some(kind) => Err(WireError::UnknownFrameKind(kind)),
            None => Err(WireError::Truncated {
                field: "response frame",
            }),
        }
    }

    /// Sends one request **opted in to streaming progress** and blocks
    /// for its final response, invoking `on_progress` once per
    /// `FRAME_PROGRESS` frame the server interleaves (one per completed
    /// tile row of a tiled run; whole-image runs may produce none).
    ///
    /// The request is sent with its progress flag forced on, so callers
    /// can reuse the same [`WireSegmentRequest`] they would pass to
    /// [`segment`](Self::segment). The final response is returned exactly
    /// as `segment` would return it — a cancelled or over-deadline run
    /// arrives as `Ok(response)` with
    /// [`WireStatus::DeadlineExceeded`](crate::WireStatus).
    ///
    /// # Errors
    ///
    /// Typed [`WireError`]s for transport or framing failures, including
    /// a corrupt progress payload, and the encoding errors of
    /// [`segment`](Self::segment).
    pub fn segment_with_progress(
        &mut self,
        request: &WireSegmentRequest,
        mut on_progress: impl FnMut(&WireProgress),
    ) -> WireResult<WireSegmentResponse> {
        let payload = if request.progress {
            request.encode()?
        } else {
            request.clone().with_progress().encode()?
        };
        write_frame(
            &mut self.stream,
            FRAME_REQUEST,
            &payload,
            self.max_frame_bytes,
        )?;
        self.stream.flush()?;
        loop {
            match read_frame_into(&mut self.stream, self.max_frame_bytes, &mut self.read_buf)? {
                Some(FRAME_PROGRESS) => on_progress(&WireProgress::decode(&self.read_buf)?),
                Some(FRAME_RESPONSE) => return WireSegmentResponse::decode(&self.read_buf),
                Some(kind) => return Err(WireError::UnknownFrameKind(kind)),
                None => {
                    return Err(WireError::Truncated {
                        field: "response frame",
                    })
                }
            }
        }
    }

    /// Asks the server for its statistics counters: uptime, this
    /// connection's request counts, server-wide response/latency totals,
    /// shared-cache counters and per-shard routing counters.
    ///
    /// # Errors
    ///
    /// Typed [`WireError`]s for transport or framing failures.
    pub fn stats(&mut self) -> WireResult<WireStatsResponse> {
        write_frame(
            &mut self.stream,
            FRAME_STATS_REQUEST,
            &WireStatsRequest.encode(),
            self.max_frame_bytes,
        )?;
        self.stream.flush()?;
        match read_frame_into(&mut self.stream, self.max_frame_bytes, &mut self.read_buf)? {
            Some(FRAME_STATS_RESPONSE) => WireStatsResponse::decode(&self.read_buf),
            Some(kind) => Err(WireError::UnknownFrameKind(kind)),
            None => Err(WireError::Truncated {
                field: "stats response frame",
            }),
        }
    }
}
