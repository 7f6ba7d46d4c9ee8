//! Length-prefixed wire framing and the page-batch row encoding.
//!
//! Every message on a coordinator↔worker connection is one *frame*:
//!
//! ```text
//! frame := tag u8, len u32 (little-endian), payload len×u8
//! ```
//!
//! Row data travels as **page batches**: rows are encoded with the
//! [`rdo_spill::codec`] tuple codec into page-sized bodies, each body passed
//! through [`rdo_spill::compress::encode_page`] (so the wire reuses the spill
//! store's optional LZ page compression, flag byte included), and each page
//! shipped as one [`Tag::Page`] frame whose payload is the row count followed
//! by the page blob. A [`Tag::End`] frame closes the batch. The codec
//! roundtrip is exact — NULLs, NaN bit patterns and huge strings survive — so
//! rows that cross a socket compare bit-identical to rows that never left the
//! process.

use rdo_common::{RdoError, Result, Tuple};
use rdo_spill::codec::{decode_rows, encode_tuple};
use rdo_spill::compress::{decode_page, encode_page_with, LzScratch};
use std::io::{Read, Write};

/// Target page-body size for wire page batches. Smaller than a disk page
/// would amortize framing poorly; bigger delays streaming. 32 KiB mirrors a
/// typical exchange buffer.
pub const WIRE_PAGE_SIZE: usize = 32 * 1024;

/// Whether the coordinator and the workers LZ-compress the page batches they
/// send. Readers go by each page's flag byte, so raw pages decode too.
pub const WIRE_COMPRESS: bool = true;

/// Upper bound on a single frame's payload (corruption guard: a garbled
/// length prefix fails fast instead of attempting a multi-gigabyte read).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Frame tags of the exchange protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// Coordinator → worker: run a repartition kernel over the page batch
    /// that follows. Payload: `key_index u32, from u32, num_partitions u32`.
    Repartition = 1,
    /// Coordinator → worker: receive a broadcast replica (page batch
    /// follows). Empty payload.
    Broadcast = 2,
    /// Coordinator → worker: round-trip one partition for result delivery
    /// (page batch follows, worker streams it back). Payload: `partition u32`.
    Gather = 3,
    /// Coordinator → worker: acknowledge and exit the serve loop. Empty
    /// payload.
    Shutdown = 4,
    /// One page of a row batch. Payload: `rows u32, page blob` (the blob is
    /// a [`rdo_spill::compress::encode_page`] output, flag byte included).
    Page = 5,
    /// Closes a page batch. Empty payload.
    End = 6,
    /// Worker → coordinator: repartition tally. Payload:
    /// `moved_rows u64, moved_bytes u64`.
    Tally = 7,
    /// Worker → coordinator: generic acknowledgement. Payload: `value u64`.
    Ack = 8,
    /// One page of one repartition output bucket. Payload:
    /// `to u32, rows u32, page blob`.
    Bucket = 9,
    /// Coordinator → worker: liveness probe during connect. Empty payload.
    Ping = 10,
}

impl Tag {
    fn from_u8(raw: u8) -> Result<Tag> {
        Ok(match raw {
            1 => Tag::Repartition,
            2 => Tag::Broadcast,
            3 => Tag::Gather,
            4 => Tag::Shutdown,
            5 => Tag::Page,
            6 => Tag::End,
            7 => Tag::Tally,
            8 => Tag::Ack,
            9 => Tag::Bucket,
            10 => Tag::Ping,
            other => return Err(corrupt(&format!("unknown frame tag {other}"))),
        })
    }
}

fn corrupt(what: &str) -> RdoError {
    RdoError::Execution(format!("corrupt exchange frame: {what}"))
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, tag: Tag, payload: &[u8]) -> Result<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(corrupt("payload exceeds MAX_FRAME_LEN"));
    }
    w.write_all(&[tag as u8])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame. Returns `None` on a clean end-of-stream (the peer closed
/// the connection between frames).
pub fn read_frame(r: &mut impl Read) -> Result<Option<(Tag, Vec<u8>)>> {
    let mut tag_byte = [0u8; 1];
    match r.read_exact(&mut tag_byte) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let tag = Tag::from_u8(tag_byte[0])?;
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(corrupt("frame length exceeds MAX_FRAME_LEN"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some((tag, payload)))
}

/// Reads one frame, erroring on end-of-stream (for protocol positions where
/// the peer closing the connection is a failure, not a clean finish).
pub fn expect_frame(r: &mut impl Read) -> Result<(Tag, Vec<u8>)> {
    read_frame(r)?.ok_or_else(|| corrupt("peer closed the connection mid-exchange"))
}

/// Little-endian scalar readers for frame payloads.
pub mod payload {
    use super::corrupt;
    use rdo_common::Result;

    /// Reads a `u32` at byte offset `at`.
    pub fn u32_at(bytes: &[u8], at: usize) -> Result<u32> {
        let b = bytes
            .get(at..at + 4)
            .ok_or_else(|| corrupt("truncated u32"))?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` at byte offset `at`.
    pub fn u64_at(bytes: &[u8], at: usize) -> Result<u64> {
        let b = bytes
            .get(at..at + 8)
            .ok_or_else(|| corrupt("truncated u64"))?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Encodes `rows` into page frames on `w`, closing the batch with a
/// [`Tag::End`] frame when `tag` is [`Tag::Page`]. [`Tag::Bucket`] batches
/// are *not* End-terminated — several buckets share one response, and the
/// closing [`Tag::Tally`] frame is their terminator.
///
/// `header` prefixes every page payload (empty for plain [`Tag::Page`]
/// batches; the repartition response uses it to tag bucket pages with their
/// destination partition). Returns the number of pages written.
///
/// ```
/// use rdo_common::{Tuple, Value};
/// use rdo_net::frame::{read_page_batch, write_page_batch, Tag};
/// use rdo_spill::compress::LzScratch;
///
/// let rows: Vec<Tuple> = (0..100)
///     .map(|i| Tuple::new(vec![Value::Int64(i), Value::from("same text on every row")]))
///     .collect();
/// let mut wire = Vec::new();
/// let pages =
///     write_page_batch(&mut wire, Tag::Page, &[], &rows, true, &mut LzScratch::new()).unwrap();
/// assert_eq!(pages, 1);
/// assert_eq!(read_page_batch(&mut &wire[..]).unwrap(), rows);
/// ```
pub fn write_page_batch(
    w: &mut impl Write,
    tag: Tag,
    header: &[u8],
    rows: &[Tuple],
    compress: bool,
    scratch: &mut LzScratch,
) -> Result<u64> {
    let mut body: Vec<u8> = Vec::new();
    let mut pages = 0u64;
    let mut flush = |body: &mut Vec<u8>, page_rows: usize, scratch: &mut LzScratch| -> Result<()> {
        let blob = encode_page_with(scratch, body, compress);
        let mut payload = Vec::with_capacity(header.len() + 4 + blob.len());
        payload.extend_from_slice(header);
        payload.extend_from_slice(&(page_rows as u32).to_le_bytes());
        payload.extend_from_slice(&blob);
        write_frame(w, tag, &payload)?;
        body.clear();
        Ok(())
    };
    let mut page_rows = 0usize;
    for row in rows {
        encode_tuple(&mut body, row);
        page_rows += 1;
        if body.len() >= WIRE_PAGE_SIZE {
            flush(&mut body, page_rows, scratch)?;
            pages += 1;
            page_rows = 0;
        }
    }
    if page_rows > 0 {
        flush(&mut body, page_rows, scratch)?;
        pages += 1;
    }
    if tag == Tag::Page {
        write_frame(w, Tag::End, &[])?;
    }
    Ok(pages)
}

/// Decodes one page payload (`rows u32, page blob` at byte offset `at`) of a
/// [`Tag::Page`] or [`Tag::Bucket`] frame back into tuples.
pub fn decode_page_payload(payload: &[u8], at: usize) -> Result<Vec<Tuple>> {
    let rows = payload::u32_at(payload, at)? as usize;
    let blob = payload
        .get(at + 4..)
        .ok_or_else(|| corrupt("truncated page blob"))?;
    decode_rows(&decode_page(blob)?, rows)
}

/// Reads a page batch until [`Tag::End`], returning the decoded rows.
pub fn read_page_batch(r: &mut impl Read) -> Result<Vec<Tuple>> {
    let mut rows = Vec::new();
    loop {
        let (tag, payload) = expect_frame(r)?;
        match tag {
            Tag::Page => rows.extend(decode_page_payload(&payload, 0)?),
            Tag::End => return Ok(rows),
            other => return Err(corrupt(&format!("expected Page/End, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::Value;

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Utf8(format!("row-{i}")),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64 / 3.0)
                    },
                ])
            })
            .collect()
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Tag::Gather, &7u32.to_le_bytes()).unwrap();
        write_frame(&mut buf, Tag::End, &[]).unwrap();
        let mut cursor = &buf[..];
        let (tag, payload) = expect_frame(&mut cursor).unwrap();
        assert_eq!(tag, Tag::Gather);
        assert_eq!(payload::u32_at(&payload, 0).unwrap(), 7);
        let (tag, payload) = expect_frame(&mut cursor).unwrap();
        assert_eq!(tag, Tag::End);
        assert!(payload.is_empty());
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn page_batches_roundtrip_compressed_and_raw() {
        // Enough rows that the batch spans multiple wire pages.
        let data = rows(20_000);
        for compress in [true, false] {
            let mut buf = Vec::new();
            let mut scratch = LzScratch::new();
            let pages =
                write_page_batch(&mut buf, Tag::Page, &[], &data, compress, &mut scratch).unwrap();
            assert!(pages > 1, "multi-page batch (compress={compress})");
            let mut cursor = &buf[..];
            let back = read_page_batch(&mut cursor).unwrap();
            assert_eq!(back, data, "exact roundtrip (compress={compress})");
        }
    }

    #[test]
    fn empty_batches_are_a_bare_end_frame() {
        let mut buf = Vec::new();
        let mut scratch = LzScratch::new();
        let pages = write_page_batch(&mut buf, Tag::Page, &[], &[], true, &mut scratch).unwrap();
        assert_eq!(pages, 0);
        let mut cursor = &buf[..];
        assert!(read_page_batch(&mut cursor).unwrap().is_empty());
    }

    /// Tag bytes 11 and 12 once framed column-layout pages. A peer that
    /// still sends them gets a clean error, never a panic or garbage rows.
    #[test]
    fn retired_column_page_tags_are_rejected() {
        let mut page = Vec::new();
        let mut scratch = LzScratch::new();
        write_page_batch(&mut page, Tag::Page, &[], &rows(10), true, &mut scratch).unwrap();
        for retired in [11u8, 12] {
            let mut frame = page.clone();
            frame[0] = retired;
            let err = read_frame(&mut &frame[..]).expect_err("retired tag");
            assert!(err
                .to_string()
                .contains(&format!("unknown frame tag {retired}")));
            assert!(read_page_batch(&mut &frame[..]).is_err());
        }
    }

    const LIVE_TAGS: [Tag; 10] = [
        Tag::Repartition,
        Tag::Broadcast,
        Tag::Gather,
        Tag::Shutdown,
        Tag::Page,
        Tag::End,
        Tag::Tally,
        Tag::Ack,
        Tag::Bucket,
        Tag::Ping,
    ];

    #[test]
    fn every_live_tag_roundtrips_through_a_frame() {
        let mut buf = Vec::new();
        for (i, tag) in LIVE_TAGS.iter().enumerate() {
            write_frame(&mut buf, *tag, &vec![i as u8; i]).unwrap();
        }
        let mut cursor = &buf[..];
        for (i, tag) in LIVE_TAGS.iter().enumerate() {
            let (back, payload) = expect_frame(&mut cursor).unwrap();
            assert_eq!(back, *tag);
            assert_eq!(back as u8, i as u8 + 1, "tag bytes are 1..=10");
            assert_eq!(payload, vec![i as u8; i]);
        }
        assert!(
            expect_frame(&mut cursor).is_err(),
            "EOF where a frame is due"
        );
        assert!(Tag::from_u8(0).is_err());
    }

    #[test]
    fn bucket_batches_carry_their_header_and_no_end_frame() {
        let data = rows(50);
        let header = 3u32.to_le_bytes();
        let mut buf = Vec::new();
        let mut scratch = LzScratch::new();
        let pages =
            write_page_batch(&mut buf, Tag::Bucket, &header, &data, false, &mut scratch).unwrap();
        assert_eq!(pages, 1);
        let mut cursor = &buf[..];
        let (tag, payload) = expect_frame(&mut cursor).unwrap();
        assert_eq!(tag, Tag::Bucket);
        assert_eq!(
            payload::u32_at(&payload, 0).unwrap(),
            3,
            "destination header"
        );
        assert_eq!(decode_page_payload(&payload, 4).unwrap(), data);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "no End frame");
    }

    #[test]
    fn page_batches_reject_foreign_frames_and_missing_ends() {
        let mut buf = Vec::new();
        let mut scratch = LzScratch::new();
        write_page_batch(&mut buf, Tag::Page, &[], &rows(5), true, &mut scratch).unwrap();
        // Drop the closing End frame: the batch is cut short.
        let cut = &buf[..buf.len() - 5];
        assert!(read_page_batch(&mut &cut[..]).is_err());
        // A non-page frame inside a batch is a protocol error.
        let mut foreign = cut.to_vec();
        write_frame(&mut foreign, Tag::Ack, &1u64.to_le_bytes()).unwrap();
        let err = read_page_batch(&mut &foreign[..]).unwrap_err();
        assert!(err.to_string().contains("expected Page/End"), "{err}");
    }

    #[test]
    fn truncated_headers_are_errors_not_a_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Tag::Ping, &[]).unwrap();
        assert_eq!(buf.len(), 5);
        for cut in 1..buf.len() {
            assert!(read_frame(&mut &buf[..cut]).is_err(), "cut={cut}");
        }
        assert!(read_frame(&mut &buf[..0]).unwrap().is_none());
    }

    #[test]
    fn payload_readers_bounds_check() {
        let bytes: Vec<u8> = (1..=12).collect();
        assert_eq!(payload::u32_at(&bytes, 0).unwrap(), 0x0403_0201);
        assert_eq!(payload::u32_at(&bytes, 8).unwrap(), 0x0c0b_0a09);
        assert!(payload::u32_at(&bytes, 9).is_err());
        assert_eq!(payload::u64_at(&bytes, 4).unwrap(), 0x0c0b_0a09_0807_0605);
        assert!(payload::u64_at(&bytes, 5).is_err());
        assert!(payload::u64_at(&[], 0).is_err());
    }

    #[test]
    fn corrupt_page_payloads_error_without_panicking() {
        let mut buf = Vec::new();
        let mut scratch = LzScratch::new();
        write_page_batch(&mut buf, Tag::Page, &[], &rows(20), true, &mut scratch).unwrap();
        let (_, payload) = expect_frame(&mut &buf[..]).unwrap();
        assert_eq!(decode_page_payload(&payload, 0).unwrap(), rows(20));
        // A row count that disagrees with the page body.
        let mut miscounted = payload.clone();
        miscounted[..4].copy_from_slice(&21u32.to_le_bytes());
        assert!(decode_page_payload(&miscounted, 0).is_err());
        // A garbled row count must not reserve memory for billions of rows.
        miscounted[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_page_payload(&miscounted, 0).is_err());
        assert!(
            decode_page_payload(&payload[..3], 0).is_err(),
            "short count"
        );
        assert!(decode_page_payload(&payload, payload.len()).is_err());
    }

    #[test]
    fn garbage_frames_error_out() {
        let mut cursor: &[u8] = &[99u8, 0, 0, 0, 0];
        assert!(read_frame(&mut cursor).is_err(), "unknown tag");
        // A length prefix past the corruption guard.
        let mut huge = vec![Tag::Page as u8];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err(), "oversized length");
        // Truncated mid-payload: an error, not a clean EOF.
        let mut buf = Vec::new();
        write_frame(&mut buf, Tag::Ack, &42u64.to_le_bytes()).unwrap();
        let mut cursor = &buf[..buf.len() - 2];
        assert!(read_frame(&mut cursor).is_err(), "truncated payload");
    }
}
