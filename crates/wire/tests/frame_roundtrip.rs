//! Property tests: every `dlb-wire/1` frame type survives
//! encode → decode bit-for-bit, for arbitrary payload contents — the
//! serialization half of the process backend's bit-identity guarantee.

use dlb_wire::{
    encode_words, read_frame, read_frame_raw, DoneFrame, Frame, KernelPlan, LoadType, PlanFrame,
    RawFrame, RoundCmdFrame, RoundMode, WireError, WordFrameKind, WordWriter, MAX_FRAME_LEN,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn round_trip(frame: Frame) {
    let bytes = frame.encode();
    let back = read_frame(&mut bytes.as_slice()).expect("decode");
    assert_eq!(back, frame);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_frames(
        (seq, shard, n) in (0u64..u64::MAX, 0u32..64, 1u32..512),
        owned in vec(0u32..512, 0..40),
        interior in vec(0u32..512, 0..40),
        boundary in vec(0u32..512, 0..40),
        groups in vec((0u32..64, vec(0u32..512, 0..12)), 0..5),
        kernel in (0u8..2, vec((0u32..512, 0u32..512), 0..30), 0u64..u64::MAX,
                   vec(0u64..u64::MAX, 0..60)),
        load_f64 in 0u8..2,
    ) {
        let (has_kernel, edges, fingerprint, divisors) = kernel;
        round_trip(Frame::Plan(PlanFrame {
            seq,
            shard,
            n,
            load_type: if load_f64 == 0 { LoadType::F64 } else { LoadType::I64 },
            owned,
            interior,
            boundary,
            recv_groups: groups,
            kernel: (has_kernel != 0).then_some(KernelPlan {
                edges,
                fingerprint,
                divisors,
            }),
        }));
    }

    #[test]
    fn round_cmd_frames(
        seq in 0u64..u64::MAX,
        round in 0u64..u64::MAX,
        mode in 0u8..2,
        halo_batches in 0u32..u32::MAX,
    ) {
        round_trip(Frame::RoundCmd(RoundCmdFrame {
            seq,
            round,
            mode: if mode == 0 { RoundMode::Precomputed } else { RoundMode::Diffusion },
            halo_batches,
        }));
    }

    #[test]
    fn value_frames(
        seq in 0u64..u64::MAX,
        src in 0u32..u32::MAX,
        values in vec(0u64..u64::MAX, 0..100),
    ) {
        // Value words cover the full u64 range, so every f64 bit
        // pattern (NaNs, negative zero, subnormals) and every i64 is
        // exercised through the same path the backend ships loads on.
        round_trip(Frame::OwnedValues { seq, values: values.clone() });
        round_trip(Frame::HaloBatch { seq, src, values: values.clone() });
        round_trip(Frame::Results { seq, values: values.clone() });
        round_trip(Frame::Collected { seq, values: values.clone() });
        round_trip(Frame::Stats { seq, words: values });
    }

    #[test]
    fn control_frames(
        seq in 0u64..u64::MAX,
        ok in 0u8..2,
        entries in vec((0u32..u32::MAX, 0u64..u64::MAX), 0..50),
    ) {
        round_trip(Frame::Done(DoneFrame { seq, ok: ok != 0 }));
        round_trip(Frame::Deltas { seq, entries });
        round_trip(Frame::Collect { seq });
        round_trip(Frame::Exit);
    }

    #[test]
    fn truncation_at_every_boundary_is_typed(
        values in vec(0u64..u64::MAX, 0..20),
        cut_frac in 0usize..100,
    ) {
        // Chopping an encoded frame anywhere strictly inside it must
        // produce a typed error — Closed at offset 0, Truncated after —
        // never a panic, a hang, or a bogus successful decode.
        let bytes = Frame::OwnedValues { seq: 3, values }.encode();
        let cut = cut_frac * bytes.len() / 100;
        prop_assume!(cut < bytes.len());
        let err = read_frame(&mut &bytes[..cut]).unwrap_err();
        match (cut, err) {
            (0, dlb_wire::WireError::Closed) => {}
            (_, dlb_wire::WireError::Truncated { .. }) => {}
            (c, other) => panic!("cut at {c}: got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// The streaming value-frame codec: `encode_words` / `WordWriter` and
// `read_frame_raw` must be byte-for-byte the frames `Frame::encode` and
// `read_frame` speak.

/// Words that stress the bit-pattern contract: NaN payloads, both
/// zeros, infinities, subnormals and the i64 extremes.
fn edge_words() -> Vec<u64> {
    vec![
        f64::NAN.to_bits(),
        0x7ff0_0000_dead_beef, // signalling NaN with a payload
        0xfff8_0000_0000_0001, // negative quiet NaN with a payload
        (-0.0f64).to_bits(),
        0.0f64.to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        1u64, // smallest subnormal
        i64::MIN as u64,
        i64::MAX as u64,
        u64::MAX,
    ]
}

/// The three value frames carrying `values`, with their streaming kinds.
fn word_frames(seq: u64, src: u32, values: &[u64]) -> [(WordFrameKind, Frame); 3] {
    [
        (
            WordFrameKind::OwnedValues,
            Frame::OwnedValues {
                seq,
                values: values.to_vec(),
            },
        ),
        (
            WordFrameKind::HaloBatch { src },
            Frame::HaloBatch {
                seq,
                src,
                values: values.to_vec(),
            },
        ),
        (
            WordFrameKind::Results,
            Frame::Results {
                seq,
                values: values.to_vec(),
            },
        ),
    ]
}

/// The byte layout of `docs/WIRE.md`, spelled out independently of the
/// crate: `[tag][len][seq][src, halo only][count][words]`.
fn spec_bytes(kind: WordFrameKind, seq: u64, values: &[u64]) -> Vec<u8> {
    let mut payload = seq.to_le_bytes().to_vec();
    let tag = match kind {
        WordFrameKind::OwnedValues => 3u8,
        WordFrameKind::HaloBatch { src } => {
            payload.extend_from_slice(&src.to_le_bytes());
            4
        }
        WordFrameKind::Results => 8,
    };
    payload.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for w in values {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    let mut bytes = vec![tag];
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

fn check_streaming_codec(seq: u64, src: u32, values: &[u64]) {
    for (kind, frame) in word_frames(seq, src, values) {
        let streamed = encode_words(kind, seq, values.iter().copied());
        assert_eq!(streamed, frame.encode(), "{kind:?}");
        assert_eq!(streamed, spec_bytes(kind, seq, values), "{kind:?}");
        let mut pushed = WordWriter::new(kind, seq, values.len());
        for &w in values {
            pushed.push(w);
        }
        assert_eq!(pushed.finish(), streamed, "{kind:?}");

        let mut buf = Vec::new();
        match read_frame_raw(&mut streamed.as_slice(), &mut buf).expect("raw decode") {
            RawFrame::Words(w) => {
                assert_eq!(w.kind, kind);
                assert_eq!(w.seq, seq);
                assert_eq!(w.len(), values.len());
                assert_eq!(w.words().collect::<Vec<_>>(), values);
                assert_eq!(w.into_frame(), frame);
            }
            other => panic!("{kind:?} decoded as {other:?}"),
        }
        assert_eq!(read_frame(&mut streamed.as_slice()).unwrap(), frame);
    }
}

#[test]
fn streaming_codec_matches_frames_at_lengths_zero_one_and_many() {
    let edges = edge_words();
    check_streaming_codec(0, 0, &[]);
    for &w in &edges {
        check_streaming_codec(u64::MAX, u32::MAX, &[w]);
    }
    let many: Vec<u64> = edges.iter().copied().cycle().take(4099).collect();
    check_streaming_codec(42, 3, &many);
}

#[test]
#[should_panic(expected = "wrong number of words")]
fn word_writer_rejects_a_short_fill() {
    let mut w = WordWriter::new(WordFrameKind::Results, 1, 2);
    w.push(7);
    w.finish();
}

#[test]
fn raw_reader_rejects_oversized_and_corrupt_counts() {
    for tag in [3u8, 4, 8] {
        let mut oversized = vec![tag];
        oversized.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        match read_frame_raw(&mut oversized.as_slice(), &mut Vec::new()) {
            Err(WireError::Oversized { len }) => assert_eq!(len, MAX_FRAME_LEN + 1),
            other => panic!("tag {tag}: got {other:?}"),
        }

        // A declared word count far beyond the payload.
        let kind = match tag {
            3 => WordFrameKind::OwnedValues,
            4 => WordFrameKind::HaloBatch { src: 1 },
            _ => WordFrameKind::Results,
        };
        let mut corrupt = encode_words(kind, 9, [1u64, 2].into_iter());
        let count_at = corrupt.len() - 2 * 8 - 4;
        corrupt[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame_raw(&mut corrupt.as_slice(), &mut Vec::new()) {
            Err(WireError::Truncated { frame: Some(k) }) => assert_eq!(k, tag),
            other => panic!("tag {tag}: got {other:?}"),
        }
        match read_frame(&mut corrupt.as_slice()) {
            Err(WireError::Truncated { frame: Some(k) }) => assert_eq!(k, tag),
            other => panic!("tag {tag}: got {other:?}"),
        }
    }
}

#[test]
fn raw_reader_reuses_one_buffer_across_frames() {
    // A long frame, then a short one, then a long one again through the
    // same buffer: stale bytes past the current payload are never read.
    let long: Vec<u64> = (0..64).collect();
    let mut stream = Vec::new();
    stream.extend(encode_words(
        WordFrameKind::OwnedValues,
        1,
        long.iter().copied(),
    ));
    stream.extend(encode_words(
        WordFrameKind::HaloBatch { src: 2 },
        1,
        [5u64].into_iter(),
    ));
    stream.extend(Frame::Done(DoneFrame { seq: 1, ok: true }).encode());
    stream.extend(encode_words(
        WordFrameKind::Results,
        1,
        long.iter().rev().copied(),
    ));
    let mut r = stream.as_slice();
    let mut buf = Vec::new();
    let got: Vec<Frame> = (0..4)
        .map(|_| read_frame_raw(&mut r, &mut buf).unwrap().into_frame())
        .collect();
    assert_eq!(
        got,
        vec![
            Frame::OwnedValues {
                seq: 1,
                values: long.clone()
            },
            Frame::HaloBatch {
                seq: 1,
                src: 2,
                values: vec![5]
            },
            Frame::Done(DoneFrame { seq: 1, ok: true }),
            Frame::Results {
                seq: 1,
                values: long.into_iter().rev().collect()
            },
        ]
    );
    assert!(matches!(
        read_frame_raw(&mut r, &mut buf),
        Err(WireError::Closed)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_codec_matches_frames(
        seq in 0u64..u64::MAX,
        src in 0u32..u32::MAX,
        values in vec(0u64..u64::MAX, 0..100),
    ) {
        check_streaming_codec(seq, src, &values);
    }

    #[test]
    fn raw_reader_agrees_with_read_frame(
        seq in 0u64..u64::MAX,
        values in vec(0u64..u64::MAX, 0..40),
        entries in vec((0u32..u32::MAX, 0u64..u64::MAX), 0..20),
        ok in 0u8..2,
    ) {
        let frames = [
            Frame::OwnedValues { seq, values: values.clone() },
            Frame::HaloBatch { seq, src: 3, values: values.clone() },
            Frame::Results { seq, values: values.clone() },
            Frame::Collected { seq, values: values.clone() },
            Frame::Stats { seq, words: values },
            Frame::Deltas { seq, entries },
            Frame::Done(DoneFrame { seq, ok: ok != 0 }),
            Frame::Collect { seq },
            Frame::Exit,
        ];
        for frame in frames {
            let bytes = frame.encode();
            let mut buf = Vec::new();
            let raw = read_frame_raw(&mut bytes.as_slice(), &mut buf).unwrap();
            prop_assert_eq!(raw.kind(), frame.kind());
            prop_assert_eq!(raw.kind_name(), frame.kind_name());
            let is_words = matches!(raw, RawFrame::Words(_));
            prop_assert_eq!(
                is_words,
                matches!(
                    frame,
                    Frame::OwnedValues { .. } | Frame::HaloBatch { .. } | Frame::Results { .. }
                )
            );
            prop_assert_eq!(raw.into_frame(), read_frame(&mut bytes.as_slice()).unwrap());
        }
    }

    #[test]
    fn raw_reader_truncation_at_every_boundary_is_typed(
        values in vec(0u64..u64::MAX, 0..20),
        src in 0u32..u32::MAX,
    ) {
        // Every strict prefix of every value frame, through the raw
        // reader: Closed at offset 0, Truncated after, never a decode.
        for (kind, _) in word_frames(3, src, &values) {
            let bytes = encode_words(kind, 3, values.iter().copied());
            for cut in 0..bytes.len() {
                match (cut, read_frame_raw(&mut &bytes[..cut], &mut Vec::new())) {
                    (0, Err(WireError::Closed)) => {}
                    (_, Err(WireError::Truncated { .. })) => {}
                    (c, other) => panic!("{kind:?} cut at {c}: got {other:?}"),
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "MAX_FRAME_LEN")]
fn word_writer_refuses_frames_no_reader_accepts() {
    WordWriter::new(WordFrameKind::Results, 0, MAX_FRAME_LEN as usize / 8);
}
