//! The wire protocol: message taxonomy and length-prefixed framing.
//!
//! Frames are a 4-byte big-endian payload length followed by the
//! payload — the `jsonio` rendering of one [`Message`]. JSON keeps the
//! frames debuggable with `tcpdump`/`xxd` and reuses the repo's
//! deterministic serializer instead of inventing a binary format; at
//! the coordination message rates of this protocol (a few tokens per
//! peer action) encoding cost is irrelevant.
//!
//! Decoding is strict: truncated frames, oversized frames
//! ([`MAX_FRAME`]), malformed JSON, and unknown message tags are all
//! rejected rather than skipped, because a transport that silently
//! drops bytes turns protocol bugs into livelocks.

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

/// Upper bound on an encoded payload, in bytes. Real frames are tens
/// of bytes; anything larger is garbage or an attack.
pub const MAX_FRAME: usize = 4 * 1024;

/// Bytes of the length prefix.
pub const PREFIX: usize = 4;

/// One protocol message between nodes.
///
/// The runtime replicates the deterministic lockstep schedule on every
/// node, so the only coordination the wire carries is *progress*:
/// cumulative announcements that a peer has executed a prefix of its
/// own actions ([`Message::Ordered`]), plus the join barrier and the
/// final handshake. Everything is idempotent and safe to retransmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// Join barrier: sent (and resent) to node 0 until `Start` arrives.
    Hello {
        /// The joining node.
        peer: u32,
    },
    /// Node 0's go signal, broadcast once every `Hello` arrived and
    /// resent to any node that keeps hello-ing.
    Start,
    /// Cumulative progress token: `peer` has applied its first `upto`
    /// own actions. Later tokens subsume earlier ones.
    Ordered {
        /// The announcing node.
        peer: u32,
        /// Count of that node's own actions applied.
        upto: u64,
    },
    /// The sender's replica halted (converged / healed / hit the round
    /// cap); carries its final token so `Done` also closes any gap.
    Done {
        /// The halting node.
        peer: u32,
        /// Final own-action count.
        upto: u64,
    },
}

impl ToJson for Message {
    fn to_json(&self) -> Json {
        match *self {
            Message::Hello { peer } => object(vec![
                ("type", Json::Str("hello".into())),
                ("peer", peer.to_json()),
            ]),
            Message::Start => object(vec![("type", Json::Str("start".into()))]),
            Message::Ordered { peer, upto } => object(vec![
                ("type", Json::Str("ordered".into())),
                ("peer", peer.to_json()),
                ("upto", upto.to_json()),
            ]),
            Message::Done { peer, upto } => object(vec![
                ("type", Json::Str("done".into())),
                ("peer", peer.to_json()),
                ("upto", upto.to_json()),
            ]),
        }
    }
}

impl FromJson for Message {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let tag = String::from_json(value.get("type")?)?;
        Ok(match tag.as_str() {
            "hello" => Message::Hello {
                peer: u32::from_json(value.get("peer")?)?,
            },
            "start" => Message::Start,
            "ordered" => Message::Ordered {
                peer: u32::from_json(value.get("peer")?)?,
                upto: u64::from_json(value.get("upto")?)?,
            },
            "done" => Message::Done {
                peer: u32::from_json(value.get("peer")?)?,
                upto: u64::from_json(value.get("upto")?)?,
            },
            other => return Err(JsonError(format!("unknown message type {other:?}"))),
        })
    }
}

/// Why a byte buffer failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the prefix plus declared payload length.
    Truncated {
        /// Total bytes the frame needs.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// Declared payload length exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared length.
        declared: usize,
    },
    /// Payload is not valid UTF-8 / JSON / a known message.
    Malformed(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            DecodeError::Oversized { declared } => {
                write!(f, "oversized frame: {declared} > {MAX_FRAME}")
            }
            DecodeError::Malformed(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes one message as a length-prefixed frame.
pub fn encode(message: &Message) -> Vec<u8> {
    let payload = lagover_jsonio::to_string(message);
    let len = payload.len();
    assert!(len <= MAX_FRAME, "encoded message exceeds MAX_FRAME");
    let mut frame = Vec::with_capacity(PREFIX + len);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    frame
}

/// Decodes one frame from the front of `buf`, returning the message
/// and the bytes consumed (so stream transports can chain frames).
pub fn decode(buf: &[u8]) -> Result<(Message, usize), DecodeError> {
    if buf.len() < PREFIX {
        return Err(DecodeError::Truncated {
            needed: PREFIX,
            have: buf.len(),
        });
    }
    let declared = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if declared > MAX_FRAME {
        return Err(DecodeError::Oversized { declared });
    }
    let needed = PREFIX + declared;
    if buf.len() < needed {
        return Err(DecodeError::Truncated {
            needed,
            have: buf.len(),
        });
    }
    let payload = std::str::from_utf8(&buf[PREFIX..needed])
        .map_err(|e| DecodeError::Malformed(e.to_string()))?;
    let message =
        lagover_jsonio::from_str(payload).map_err(|e| DecodeError::Malformed(e.to_string()))?;
    Ok((message, needed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [Message; 4] = [
        Message::Hello { peer: 7 },
        Message::Start,
        Message::Ordered {
            peer: 3,
            upto: 4_000_000_017,
        },
        Message::Done { peer: 0, upto: 0 },
    ];

    #[test]
    fn round_trip_every_variant() {
        for message in ALL {
            let frame = encode(&message);
            let (back, consumed) = decode(&frame).expect("decodes");
            assert_eq!(back, message);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn chained_frames_decode_in_sequence() {
        let mut stream = Vec::new();
        for message in ALL {
            stream.extend_from_slice(&encode(&message));
        }
        let mut offset = 0;
        for message in ALL {
            let (back, consumed) = decode(&stream[offset..]).expect("decodes");
            assert_eq!(back, message);
            offset += consumed;
        }
        assert_eq!(offset, stream.len());
    }

    #[test]
    fn truncated_frames_rejected() {
        let frame = encode(&Message::Ordered { peer: 1, upto: 2 });
        for cut in 0..frame.len() {
            let err = decode(&frame[..cut]).expect_err("truncation detected");
            assert!(
                matches!(err, DecodeError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn oversized_frames_rejected() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
        frame.resize(PREFIX + MAX_FRAME + 1, b' ');
        assert!(matches!(decode(&frame), Err(DecodeError::Oversized { .. })));
    }

    #[test]
    fn malformed_payloads_rejected() {
        for payload in [&b"not json"[..], b"{\"type\": \"warp\"}", b"\xff\xfe"] {
            let mut frame = Vec::new();
            frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            frame.extend_from_slice(payload);
            assert!(matches!(decode(&frame), Err(DecodeError::Malformed(_))));
        }
    }

    /// The exact bytes of a frame are pinned: the framing is a wire
    /// contract, not an implementation detail.
    #[test]
    fn frame_bytes_pinned() {
        let frame = encode(&Message::Ordered { peer: 3, upto: 17 });
        let expected_payload = "{\"type\":\"ordered\",\"peer\":3,\"upto\":17}";
        assert_eq!(
            &frame[..PREFIX],
            (expected_payload.len() as u32).to_be_bytes()
        );
        assert_eq!(&frame[PREFIX..], expected_payload.as_bytes());
    }

    fn messages() -> impl Strategy<Value = Message> {
        prop_oneof![
            any::<u32>().prop_map(|peer| Message::Hello { peer }),
            Just(Message::Start),
            (any::<u32>(), any::<u64>()).prop_map(|(peer, upto)| Message::Ordered { peer, upto }),
            (any::<u32>(), any::<u64>()).prop_map(|(peer, upto)| Message::Done { peer, upto }),
        ]
    }

    /// `decode`'s contract on any input: it returns (a panic fails the
    /// case), and an `Ok` consumes at most the input.
    fn decodes_within(bytes: &[u8]) -> Result<(), TestCaseError> {
        if let Ok((_, consumed)) = decode(bytes) {
            prop_assert!(
                consumed <= bytes.len(),
                "consumed {consumed} of {}",
                bytes.len()
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..=2 * MAX_FRAME + 8),
        ) {
            decodes_within(&bytes)?;
        }

        /// Arbitrary bytes behind a prefix that declares at most
        /// `MAX_FRAME`, so the payload checks run, not only the length
        /// checks.
        #[test]
        fn decode_never_panics_behind_a_plausible_prefix(
            declared in 0u32..=MAX_FRAME as u32,
            payload in prop::collection::vec(any::<u8>(), 0..=MAX_FRAME + 8),
        ) {
            let mut bytes = declared.to_be_bytes().to_vec();
            bytes.extend_from_slice(&payload);
            decodes_within(&bytes)?;
        }

        #[test]
        fn decode_never_panics_on_a_frame_with_one_byte_flipped(
            message in messages(),
            at in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let mut frame = encode(&message);
            let i = at % frame.len();
            frame[i] ^= flip;
            decodes_within(&frame)?;
        }

        #[test]
        fn decode_inverts_encode(message in messages()) {
            let frame = encode(&message);
            prop_assert_eq!(decode(&frame), Ok((message, frame.len())));
        }
    }
}
