//! Property test of the connection layer's frame reassembly: a valid mixed
//! v1/v2 request stream, fragmented at *arbitrary* byte boundaries —
//! including inside UTF-8 multibyte sequences and straddling the `\n`
//! terminator — always reassembles into exactly the original request
//! sequence. This pins the [`FrameBuffer`] every socket's bytes go
//! through; a fragmentation-sensitive bug here silently
//! corrupts requests under real-world packet boundaries. Every property
//! runs once per way bytes enter the buffer: pushed (the server's
//! reactor), read in place by `fill_from` from a reader that
//! yields one packet per `read` (the blocking client), and a mix of both.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use qsdnn::engine::{Mode, Objective};
use qsdnn_serve::protocol::{
    encode_binary_frame, encode_body, parse_binary_request, parse_request_frame, write_message,
    BinaryFrameStatus, FrameBuffer, PlanRequest, ProfileRequest, Request, RequestFrame,
    TaggedRequest, TransferMode, MAX_FRAME_BYTES,
};

/// Network names deliberately rich in multibyte UTF-8 (the vendored
/// serializer emits non-ASCII raw, so these bytes really ride the wire):
/// 2-, 3- and 4-byte sequences all appear.
const NETWORKS: [&str; 4] = ["lenet5", "möbilenet", "ネット", "net🔥v2"];

fn random_request(rng: &mut SmallRng) -> Request {
    let network = NETWORKS[rng.gen_range(0..NETWORKS.len())].to_string();
    match rng.gen_range(0..4) {
        0 => Request::Ping {
            version: rng.gen_range(1..3),
        },
        1 => Request::Stats,
        2 => Request::Profile(ProfileRequest {
            network,
            batch: rng.gen_range(1..5),
            mode: if rng.gen_bool(0.5) {
                Mode::Cpu
            } else {
                Mode::Gpgpu
            },
            repeats: rng.gen_range(0..10),
            platform: String::new(),
        }),
        _ => Request::Plan(PlanRequest {
            network,
            batch: rng.gen_range(1..5),
            mode: Mode::Gpgpu,
            objective: Objective::Weighted {
                lambda: rng.gen_range(0.0..1.0),
            },
            episodes: rng.gen_range(0..500),
            seeds: (0..rng.gen_range(0..3)).map(|i| i as u64).collect(),
            transfer: if rng.gen_bool(0.5) {
                TransferMode::Auto
            } else {
                TransferMode::Off
            },
            trace: false,
            platform: String::new(),
        }),
    }
}

/// A random mixed stream: bare and tagged frames, with occasional blank
/// keepalive lines and CRLF terminators sprinkled in (both of which the
/// splitter must skip / strip, not surface as frames).
fn random_stream(rng: &mut SmallRng) -> (Vec<RequestFrame>, Vec<u8>) {
    let mut frames = Vec::new();
    let mut bytes = Vec::new();
    for id in 0..rng.gen_range(1..8u64) {
        if rng.gen_bool(0.3) {
            bytes.extend_from_slice(if rng.gen_bool(0.5) { b"\n" } else { b"  \r\n" });
        }
        let req = random_request(rng);
        let frame = if rng.gen_bool(0.5) {
            RequestFrame::Tagged(TaggedRequest { id, req })
        } else {
            RequestFrame::Untagged(req)
        };
        let mut line = Vec::new();
        match &frame {
            RequestFrame::Tagged(t) => write_message(&mut line, t).expect("serialize"),
            RequestFrame::Untagged(r) => write_message(&mut line, r).expect("serialize"),
        }
        if rng.gen_bool(0.2) {
            // CRLF clients exist; the splitter strips the \r.
            line.truncate(line.len() - 1);
            line.extend_from_slice(b"\r\n");
        }
        bytes.extend_from_slice(&line);
        frames.push(frame);
    }
    (frames, bytes)
}

/// A random v3 binary stream: bare and tagged frames over the
/// length-prefixed framing (no keepalives — the binary framing has no
/// blank-line concept; every byte belongs to a frame).
fn random_binary_stream(rng: &mut SmallRng) -> (Vec<RequestFrame>, Vec<u8>) {
    let mut frames = Vec::new();
    let mut bytes = Vec::new();
    for id in 0..rng.gen_range(1..8u64) {
        let req = random_request(rng);
        let frame = if rng.gen_bool(0.5) {
            RequestFrame::Tagged(TaggedRequest { id, req })
        } else {
            RequestFrame::Untagged(req)
        };
        let (wire_id, req) = match &frame {
            RequestFrame::Tagged(t) => (Some(t.id), &t.req),
            RequestFrame::Untagged(r) => (None, r),
        };
        let body = encode_body(req).expect("encode body");
        bytes.extend_from_slice(&encode_binary_frame(wire_id, &body).expect("encode frame"));
        frames.push(frame);
    }
    (frames, bytes)
}

/// Random packet boundaries over `bytes`: duplicates and empty chunks
/// included, so zero-length reads and byte-at-a-time delivery both occur.
fn random_chunks<'a>(rng: &mut SmallRng, bytes: &'a [u8]) -> Vec<&'a [u8]> {
    let mut cuts: Vec<usize> = (0..rng.gen_range(0..24))
        .map(|_| rng.gen_range(0..bytes.len() + 1))
        .collect();
    cuts.push(0);
    cuts.push(bytes.len());
    cuts.sort_unstable();
    cuts.windows(2)
        .map(|pair| &bytes[pair[0]..pair[1]])
        .collect()
}

/// How a packet enters the buffer.
#[derive(Debug, Clone, Copy)]
enum Delivery {
    Push,
    Fill,
    /// Either, per packet: `push` after `fill_from` drops the spare room
    /// the fill left behind, and the next fill must rebuild it.
    Mixed,
}

const DELIVERIES: [Delivery; 3] = [Delivery::Push, Delivery::Fill, Delivery::Mixed];

fn deliver(fb: &mut FrameBuffer, how: Delivery, rng: &mut SmallRng, packet: &[u8]) {
    let fill = match how {
        Delivery::Push => false,
        Delivery::Fill => true,
        Delivery::Mixed => rng.gen_bool(0.5),
    };
    // To a reader a zero-length read is EOF, not an empty packet.
    if !fill || packet.is_empty() {
        return fb.push(packet);
    }
    let before = fb.buffered();
    // A slice reads as a socket holding exactly this packet.
    let mut reader = packet;
    while !reader.is_empty() {
        fb.fill_from(&mut reader).expect("slices do not fail");
    }
    assert_eq!(fb.buffered(), before + packet.len());
}

/// Drains every complete binary frame currently buffered.
fn drain_binary(fb: &mut FrameBuffer, got: &mut Vec<RequestFrame>) {
    loop {
        match fb.next_binary_frame(MAX_FRAME_BYTES) {
            BinaryFrameStatus::Frame(frame) => {
                got.push(parse_binary_request(&frame).expect("frames parse"));
            }
            BinaryFrameStatus::NeedMore => return,
            BinaryFrameStatus::Corrupt(message) => panic!("valid stream read as: {message}"),
        }
    }
}

/// A stream whose first frame is longer than the 64 KiB at which the
/// buffer starts compacting: every later frame arrives behind a consumed
/// prefix worth dropping, so compaction lands mid-line — after the
/// terminator search has already scanned part of the line it moves.
#[test]
fn compaction_mid_line_reassembles_identically() {
    let mut rng = SmallRng::seed_from_u64(0xC0_4AC7);
    let long = Request::Plan(PlanRequest {
        // Mostly ASCII: the shim's parser revalidates the rest of the
        // line at every multibyte character.
        network: "x".repeat(100_000) + "ネット",
        ..PlanRequest::latency("x")
    });
    let mut expected = vec![RequestFrame::Untagged(long.clone())];
    let mut bytes = Vec::new();
    write_message(&mut bytes, &long).expect("serialize");
    // Enough short frames behind it that many packets arrive after it.
    for _ in 0..60 {
        let (frames, more) = random_stream(&mut rng);
        expected.extend(frames);
        bytes.extend(more);
    }
    for chunk in [1000, 4096, 65_536] {
        for how in DELIVERIES {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for packet in bytes.chunks(chunk) {
                deliver(&mut fb, how, &mut rng, packet);
                while let Some(frame) = fb.next_frame() {
                    let text = String::from_utf8(frame).expect("frames are valid UTF-8");
                    got.push(parse_request_frame(&text).expect("frames parse"));
                }
            }
            assert!(
                got == expected,
                "{chunk}-byte packets ({how:?}) mangled the stream"
            );
            assert_eq!(fb.buffered(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the fragmentation — byte-at-a-time, mid-multibyte-char,
    /// across the terminator — the reassembled request sequence is the
    /// original one.
    #[test]
    fn fragmented_streams_reassemble_identically(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (expected, bytes) = random_stream(&mut rng);

        for how in DELIVERIES {
            // Random cut points (duplicates and 0/len included): every
            // position is a legal packet boundary, multibyte chars included.
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for packet in random_chunks(&mut rng, &bytes) {
                deliver(&mut fb, how, &mut rng, packet);
                while let Some(frame) = fb.next_frame() {
                    let text = String::from_utf8(frame).expect("frames are valid UTF-8");
                    got.push(parse_request_frame(&text).expect("frames parse"));
                }
            }
            prop_assert_eq!(&got, &expected, "seed {} mangled the stream ({:?})", seed, how);
            prop_assert_eq!(fb.buffered(), 0, "no bytes may linger after a complete stream");
        }
    }

    /// A stream whose last frame lost its terminator (half-close client):
    /// everything terminated reassembles normally and the EOF hand-over
    /// recovers the final request.
    #[test]
    fn unterminated_tail_is_recovered_at_eof(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (expected, mut bytes) = random_stream(&mut rng);
        assert_eq!(bytes.pop(), Some(b'\n'));

        for how in DELIVERIES {
            // Byte-at-a-time: the most fragmented delivery possible.
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for b in &bytes {
                deliver(&mut fb, how, &mut rng, std::slice::from_ref(b));
                while let Some(frame) = fb.next_frame() {
                    let text = String::from_utf8(frame).expect("valid UTF-8");
                    got.push(parse_request_frame(&text).expect("frames parse"));
                }
            }
            prop_assert_eq!(got.len(), expected.len() - 1, "tail must still be pending");
            let tail = fb.take_partial().expect("unterminated tail");
            let text = String::from_utf8(tail).expect("valid UTF-8");
            got.push(parse_request_frame(&text).expect("tail parses"));
            prop_assert_eq!(&got, &expected, "{:?}", how);
            prop_assert_eq!(fb.buffered(), 0);
        }
    }

    /// The v3 length-prefixed framing reassembles from arbitrary byte
    /// boundaries — mid-magic, mid-length-prefix, mid-id, mid-body —
    /// exactly like the JSON splitter does from mid-line cuts.
    #[test]
    fn fragmented_binary_streams_reassemble_identically(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB3B3_0000);
        let (expected, bytes) = random_binary_stream(&mut rng);

        for how in DELIVERIES {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for chunk in random_chunks(&mut rng, &bytes) {
                deliver(&mut fb, how, &mut rng, chunk);
                drain_binary(&mut fb, &mut got);
            }
            prop_assert_eq!(&got, &expected, "seed {} mangled the binary stream ({:?})", seed, how);
            prop_assert_eq!(fb.buffered(), 0, "no bytes may linger after a complete stream");
        }
    }

    /// Adjacent connections speaking different framings: one JSON, one
    /// binary, their packets arriving interleaved in arbitrary order.
    /// Each [`FrameBuffer`] is per-connection state — neither stream may
    /// perturb the other, however their deliveries are woven together.
    #[test]
    fn binary_and_json_connections_interleave_without_crosstalk(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0051_D3A1);
        let (json_expected, json_bytes) = random_stream(&mut rng);
        let (bin_expected, bin_bytes) = random_binary_stream(&mut rng);
        let json_chunks = random_chunks(&mut rng, &json_bytes);
        let bin_chunks = random_chunks(&mut rng, &bin_bytes);
        let how = DELIVERIES[rng.gen_range(0..DELIVERIES.len())];

        let mut json_fb = FrameBuffer::new();
        let mut bin_fb = FrameBuffer::new();
        let mut json_got = Vec::new();
        let mut bin_got = Vec::new();
        let (mut ji, mut bi) = (0, 0);
        while ji < json_chunks.len() || bi < bin_chunks.len() {
            let take_json =
                bi >= bin_chunks.len() || (ji < json_chunks.len() && rng.gen_bool(0.5));
            if take_json {
                deliver(&mut json_fb, how, &mut rng, json_chunks[ji]);
                ji += 1;
                while let Some(frame) = json_fb.next_frame() {
                    let text = String::from_utf8(frame).expect("valid UTF-8");
                    json_got.push(parse_request_frame(&text).expect("frames parse"));
                }
            } else {
                deliver(&mut bin_fb, how, &mut rng, bin_chunks[bi]);
                bi += 1;
                drain_binary(&mut bin_fb, &mut bin_got);
            }
        }
        prop_assert_eq!(&json_got, &json_expected, "JSON stream perturbed");
        prop_assert_eq!(&bin_got, &bin_expected, "binary stream perturbed");
        prop_assert_eq!(json_fb.buffered() + bin_fb.buffered(), 0);
    }
}
