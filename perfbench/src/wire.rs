//! The benchmark's wire client: the same frames the shipped client
//! sends, with the codec calls made here so a traced pass can time them.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use datacase_engine::frontend::{Request, Response};
use datacase_engine::Actor;
use datacase_server::wire::{read_frame_raw, Frame};
use datacase_server::WireError;

/// Codec time and bytes for the batches of one connection.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecTrace {
    /// Encoding both frames of each round trip: the client's batch and
    /// (replayed) the gateway's replies.
    pub encode: Duration,
    /// Decoding both frames: the gateway's view of the batch (replayed)
    /// and the client's view of the replies.
    pub decode: Duration,
    /// Frame bytes in both directions.
    pub bytes: u64,
    /// Round trips traced.
    pub batches: u64,
}

impl CodecTrace {
    /// Fold another trace in.
    pub fn merge(&mut self, other: &CodecTrace) {
        self.encode += other.encode;
        self.decode += other.decode;
        self.bytes += other.bytes;
        self.batches += other.batches;
    }
}

/// One authenticated connection to the gateway.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Dial the gateway and complete the tenant handshake.
    pub fn connect(
        addr: SocketAddr,
        tenant: &str,
        token: &str,
        actor: Actor,
    ) -> Result<Conn, WireError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let hello = Frame::Hello {
            tenant: tenant.into(),
            token: token.into(),
            actor,
        };
        stream.write_all(&hello.encode())?;
        match read_reply(&mut stream)? {
            Frame::Welcome { .. } => Ok(Conn { stream }),
            _ => Err(WireError::Protocol("unexpected handshake reply".into())),
        }
    }

    /// Send one batch and wait for its replies. With a trace, the four
    /// codec calls of the round trip are timed: the two this client makes
    /// inside the round trip, and, after it, the gateway's two replayed on
    /// the same frames, so the round trip itself is not lengthened by the
    /// replay. The batch is handed back with the replies.
    pub fn call(
        &mut self,
        requests: Vec<Request>,
        trace: Option<&mut CodecTrace>,
    ) -> (Vec<Request>, Result<Vec<Response>, WireError>) {
        let t = Instant::now();
        let (out, requests) = encode_batch(requests);
        let encode = t.elapsed();
        let result = match trace {
            None => self
                .stream
                .write_all(&out)
                .map_err(WireError::from)
                .and_then(|()| into_responses(read_reply(&mut self.stream)?)),
            Some(trace) => self.traced_round_trip(&out, encode, trace),
        };
        (requests, result)
    }

    fn traced_round_trip(
        &mut self,
        out: &[u8],
        mut encode: Duration,
        trace: &mut CodecTrace,
    ) -> Result<Vec<Response>, WireError> {
        self.stream.write_all(out)?;
        let (frame_type, payload) = read_frame_raw(&mut self.stream)?;
        let t = Instant::now();
        let reply = Frame::decode(frame_type, &payload);
        let mut decode = t.elapsed();
        // The gateway's side of the same round trip.
        let t = Instant::now();
        let seen = Frame::decode(out[3], &out[datacase_server::wire::HEADER_LEN..]);
        decode += t.elapsed();
        std::hint::black_box(&seen);
        if let Ok(reply) = &reply {
            let t = Instant::now();
            let sent = reply.encode();
            encode += t.elapsed();
            std::hint::black_box(&sent);
        }
        trace.encode += encode;
        trace.decode += decode;
        trace.bytes += (out.len() + datacase_server::wire::HEADER_LEN + payload.len()) as u64;
        trace.batches += 1;
        into_responses(reply?)
    }

    /// Orderly close.
    pub fn goodbye(mut self) {
        let _ = self.stream.write_all(&Frame::Goodbye.encode());
    }
}

/// Encode a batch frame, handing the requests back.
fn encode_batch(requests: Vec<Request>) -> (Vec<u8>, Vec<Request>) {
    let frame = Frame::Batch(requests);
    let bytes = frame.encode();
    let Frame::Batch(requests) = frame else {
        unreachable!("built as a batch")
    };
    (bytes, requests)
}

fn read_reply(stream: &mut TcpStream) -> Result<Frame, WireError> {
    let (frame_type, payload) = read_frame_raw(stream)?;
    match Frame::decode(frame_type, &payload)? {
        Frame::ProtocolError { code, detail } => {
            Err(WireError::Protocol(format!("{code}: {detail}")))
        }
        frame => Ok(frame),
    }
}

fn into_responses(frame: Frame) -> Result<Vec<Response>, WireError> {
    match frame {
        Frame::Replies { responses, .. } => Ok(responses),
        Frame::ProtocolError { code, detail } => {
            Err(WireError::Protocol(format!("{code}: {detail}")))
        }
        _ => Err(WireError::Protocol(
            "unexpected frame in place of replies".into(),
        )),
    }
}
