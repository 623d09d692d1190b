//! Serialization of [`WebGraph`]s: a diff-friendly text format and a compact
//! binary snapshot format for large graphs.
//!
//! Text format (line oriented, `#` comments allowed):
//!
//! ```text
//! dpr-graph v1
//! sites <n_sites>
//! site <id> <host>
//! pages <n_pages>
//! page <id> <site_id> <ext_out>
//! links <n_links>
//! <from> <to>
//! ```
//!
//! The text format is intentionally simple: experiment inputs can be
//! inspected, edited, and version-controlled. It does not scale — a 10M-page
//! graph is ~1 GB of decimal digits and parses link-by-link through a
//! [`GraphBuilder`], holding the edge list twice (builder triplets + CSR).
//!
//! The binary snapshot format ([`SnapshotWriter`], [`read_snapshot`]) fixes
//! both problems:
//!
//! ```text
//! magic   b"DPRG1\n"
//! varint  n_sites, then per site: varint name_len + UTF-8 bytes
//! varint  n_pages
//! u64 LE  n_links          (backpatched on finish, so rows can stream)
//! per page (ascending id): varint site, varint ext_out, varint deg,
//!                          deg delta-encoded varints of the sorted
//!                          destination list (prev resets to 0 per page)
//! ```
//!
//! All varints are LEB128. Delta-encoding the sorted adjacency rows brings
//! the on-disk cost to ~1–2 bytes per link on site-local graphs, and the
//! loader streams rows straight into the final CSR arrays — the edge list is
//! materialized exactly once.

use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};

use crate::builder::GraphBuilder;
use crate::delta::{DeltaOp, GraphDelta};
use crate::graph::WebGraph;

/// Errors produced while parsing the text format.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file, with a line number and message.
    Format {
        /// 1-based line number of the offending line (0 = end of file).
        line: usize,
        /// What was expected or found.
        message: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Format { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Writes `g` in the v1 text format.
pub fn write_graph<W: Write>(g: &WebGraph, mut w: W) -> io::Result<()> {
    writeln!(w, "dpr-graph v1")?;
    writeln!(w, "sites {}", g.n_sites())?;
    for s in 0..g.n_sites() as u32 {
        writeln!(w, "site {s} {}", g.site_name(s))?;
    }
    writeln!(w, "pages {}", g.n_pages())?;
    for p in 0..g.n_pages() as u32 {
        writeln!(w, "page {p} {} {}", g.site(p), g.external_out_degree(p))?;
    }
    writeln!(w, "links {}", g.n_internal_links())?;
    for (u, v) in g.links() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Reads a graph in the v1 text format.
pub fn read_graph<R: BufRead>(r: R) -> Result<WebGraph, ParseError> {
    let mut lines = r.lines().enumerate().map(|(i, l)| (i + 1, l)).filter(|(_, l)| match l {
        Ok(s) => !s.trim().is_empty() && !s.trim_start().starts_with('#'),
        Err(_) => true,
    });

    let mut next = |what: &str| -> Result<(usize, String), ParseError> {
        match lines.next() {
            Some((n, Ok(l))) => Ok((n, l)),
            Some((_, Err(e))) => Err(e.into()),
            None => Err(ParseError::Format { line: 0, message: format!("missing {what}") }),
        }
    };

    let (n, header) = next("header")?;
    if header.trim() != "dpr-graph v1" {
        return Err(ParseError::Format { line: n, message: format!("bad header {header:?}") });
    }

    let parse_count = |line: usize, text: &str, key: &str| -> Result<usize, ParseError> {
        let mut it = text.split_whitespace();
        match (it.next(), it.next().map(str::parse::<usize>)) {
            (Some(k), Some(Ok(v))) if k == key => Ok(v),
            _ => Err(ParseError::Format {
                line,
                message: format!("expected `{key} <count>`, got {text:?}"),
            }),
        }
    };

    let mut b = GraphBuilder::new();

    let (n, l) = next("sites")?;
    let n_sites = parse_count(n, &l, "sites")?;
    for _ in 0..n_sites {
        let (n, l) = next("site line")?;
        let mut it = l.split_whitespace();
        let (kw, id, host) = (it.next(), it.next(), it.next());
        match (kw, id.map(str::parse::<u32>), host) {
            (Some("site"), Some(Ok(id)), Some(host)) => {
                let got = b.add_site(host.to_string());
                if got != id {
                    return Err(ParseError::Format {
                        line: n,
                        message: format!("non-sequential site id {id}, expected {got}"),
                    });
                }
            }
            _ => {
                return Err(ParseError::Format { line: n, message: format!("bad site line {l:?}") })
            }
        }
    }

    let (n, l) = next("pages")?;
    let n_pages = parse_count(n, &l, "pages")?;
    for _ in 0..n_pages {
        let (n, l) = next("page line")?;
        let mut it = l.split_whitespace();
        match (
            it.next(),
            it.next().map(str::parse::<u32>),
            it.next().map(str::parse::<u32>),
            it.next().map(str::parse::<u32>),
        ) {
            (Some("page"), Some(Ok(id)), Some(Ok(site)), Some(Ok(ext))) => {
                let got = b.add_page(site);
                if got != id {
                    return Err(ParseError::Format {
                        line: n,
                        message: format!("non-sequential page id {id}, expected {got}"),
                    });
                }
                b.add_external_links(id, ext);
            }
            _ => {
                return Err(ParseError::Format { line: n, message: format!("bad page line {l:?}") })
            }
        }
    }

    let (n, l) = next("links")?;
    let n_links = parse_count(n, &l, "links")?;
    for _ in 0..n_links {
        let (n, l) = next("link line")?;
        let mut it = l.split_whitespace();
        match (it.next().map(str::parse::<u32>), it.next().map(str::parse::<u32>)) {
            (Some(Ok(u)), Some(Ok(v))) => b.add_link(u, v),
            _ => {
                return Err(ParseError::Format { line: n, message: format!("bad link line {l:?}") })
            }
        }
    }

    Ok(b.build())
}

/// Writes `g` to a file path.
pub fn save(g: &WebGraph, path: impl AsRef<std::path::Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_graph(g, io::BufWriter::new(f))
}

/// Reads a graph from a file path.
pub fn load(path: impl AsRef<std::path::Path>) -> Result<WebGraph, ParseError> {
    let f = std::fs::File::open(path)?;
    read_graph(io::BufReader::new(f))
}

// ---------------------------------------------------------------------------
// Binary snapshot format.
// ---------------------------------------------------------------------------

/// Magic bytes opening every binary snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 6] = b"DPRG1\n";

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 63 && b > 1 {
            return Err(invalid("varint overflows u64"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(invalid("varint too long"));
        }
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Elements a reader pre-allocates for a count it cannot check against
/// the input's length; past this, the vector grows as records arrive.
const UNCHECKED_PREALLOC: u64 = 1 << 12;

/// Capacity to pre-allocate for `count` records announced by an untrusted
/// header, each taking at least `min_bytes` of input. When the input's
/// length is known, a count it cannot hold is [`io::ErrorKind::InvalidData`]
/// and any other count is pre-allocated exactly; otherwise the
/// pre-allocation is capped at [`UNCHECKED_PREALLOC`]. Either way a hostile
/// header costs memory in proportion to the input, never to the count.
fn header_capacity(
    count: u64,
    min_bytes: u64,
    input_len: Option<u64>,
    what: &str,
) -> io::Result<usize> {
    match input_len {
        Some(len) if count > len / min_bytes => {
            Err(invalid(format!("{what} {count} exceeds what a {len}-byte input can hold")))
        }
        Some(_) => usize::try_from(count).map_err(|_| invalid(format!("{what} exceeds usize"))),
        None => Ok(count.min(UNCHECKED_PREALLOC) as usize),
    }
}

/// Streaming writer for the binary snapshot format.
///
/// Rows must be supplied for every page in ascending id order via
/// [`SnapshotWriter::page`]; [`SnapshotWriter::finish`] backpatches the link
/// count into the header (hence the `Seek` bound). The writer never buffers
/// the adjacency — a generator can stream a 10M-page graph straight to disk
/// without materializing its edge list.
#[derive(Debug)]
pub struct SnapshotWriter<W: Write + Seek> {
    w: W,
    n_sites: u64,
    n_pages: u64,
    pages_written: u64,
    n_links: u64,
    links_at: u64,
}

impl<W: Write + Seek> SnapshotWriter<W> {
    /// Writes the header (site table + page count) and positions the stream
    /// at the first page row.
    ///
    /// # Errors
    /// Propagates I/O failures from the underlying writer.
    pub fn new(mut w: W, site_names: &[String], n_pages: usize) -> io::Result<Self> {
        w.write_all(SNAPSHOT_MAGIC)?;
        write_varint(&mut w, site_names.len() as u64)?;
        for name in site_names {
            write_varint(&mut w, name.len() as u64)?;
            w.write_all(name.as_bytes())?;
        }
        write_varint(&mut w, n_pages as u64)?;
        let links_at = w.stream_position()?;
        w.write_all(&0u64.to_le_bytes())?; // n_links placeholder
        Ok(Self {
            w,
            n_sites: site_names.len() as u64,
            n_pages: n_pages as u64,
            pages_written: 0,
            n_links: 0,
            links_at,
        })
    }

    /// Appends the row of the next page: its site, external out-link count,
    /// and **sorted** internal destination list.
    ///
    /// # Errors
    /// Propagates I/O failures from the underlying writer.
    ///
    /// # Panics
    /// If called more than `n_pages` times, if `site` is out of range, or if
    /// `dsts` is not sorted ascending (duplicates are allowed).
    pub fn page(&mut self, site: u32, ext_out: u32, dsts: &[u32]) -> io::Result<()> {
        assert!(self.pages_written < self.n_pages, "more page rows than declared");
        assert!(u64::from(site) < self.n_sites, "site {site} out of range");
        write_varint(&mut self.w, u64::from(site))?;
        write_varint(&mut self.w, u64::from(ext_out))?;
        write_varint(&mut self.w, dsts.len() as u64)?;
        let mut prev = 0u32;
        for &v in dsts {
            assert!(v >= prev, "destinations must be sorted");
            write_varint(&mut self.w, u64::from(v - prev))?;
            prev = v;
        }
        self.pages_written += 1;
        self.n_links += dsts.len() as u64;
        Ok(())
    }

    /// Backpatches the link count and returns the underlying writer, whose
    /// position is restored to the end of the snapshot.
    ///
    /// # Errors
    /// Propagates I/O failures from the underlying writer.
    ///
    /// # Panics
    /// If fewer than `n_pages` rows were written.
    pub fn finish(mut self) -> io::Result<W> {
        assert_eq!(self.pages_written, self.n_pages, "missing page rows");
        let end = self.w.stream_position()?;
        self.w.seek(SeekFrom::Start(self.links_at))?;
        self.w.write_all(&self.n_links.to_le_bytes())?;
        self.w.seek(SeekFrom::Start(end))?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Writes `g` as a binary snapshot.
///
/// # Errors
/// Propagates I/O failures from the underlying writer.
pub fn write_snapshot<W: Write + Seek>(g: &WebGraph, w: W) -> io::Result<()> {
    let names: Vec<String> = (0..g.n_sites() as u32).map(|s| g.site_name(s).to_string()).collect();
    let mut sw = SnapshotWriter::new(w, &names, g.n_pages())?;
    for p in 0..g.n_pages() as u32 {
        sw.page(g.site(p), g.external_out_degree(p), g.out_links(p))?;
    }
    sw.finish()?;
    Ok(())
}

/// Reads a binary snapshot, streaming page rows directly into the final CSR
/// arrays (the adjacency is materialized exactly once).
///
/// # Errors
/// Returns [`io::ErrorKind::InvalidData`] on malformed input, and propagates
/// underlying I/O failures (including [`io::ErrorKind::UnexpectedEof`] on
/// truncation).
pub fn read_snapshot<R: BufRead>(mut r: R) -> io::Result<WebGraph> {
    read_snapshot_body(&mut r, None)
}

/// Reads the snapshot at the front of `r`. `input_len`, when known, is the
/// number of bytes `r` holds; the header's site, page and link counts are
/// checked against it before anything is sized from them. Every page row
/// takes at least 3 bytes (three varints), every link and site name at
/// least 1.
fn read_snapshot_body<R: BufRead>(r: &mut R, input_len: Option<u64>) -> io::Result<WebGraph> {
    let mut magic = [0u8; 6];
    r.read_exact(&mut magic)?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(invalid("bad snapshot magic"));
    }
    let n_sites = read_varint(r)?;
    if n_sites > u64::from(u32::MAX) {
        return Err(invalid("site count exceeds u32"));
    }
    let mut site_names = Vec::with_capacity(header_capacity(n_sites, 1, input_len, "site count")?);
    for _ in 0..n_sites {
        let len = read_varint(r)? as usize;
        if len > 1 << 16 {
            return Err(invalid("site name too long"));
        }
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)?;
        site_names.push(String::from_utf8(buf).map_err(|_| invalid("site name is not UTF-8"))?);
    }
    let n_pages = read_varint(r)?;
    if n_pages > u64::from(u32::MAX) {
        return Err(invalid("page count exceeds u32"));
    }
    let n_pages = n_pages as usize;
    let mut links_buf = [0u8; 8];
    r.read_exact(&mut links_buf)?;
    let n_links = u64::from_le_bytes(links_buf);

    let page_cap = header_capacity(n_pages as u64, 3, input_len, "page count")?;
    let mut out_ptr = Vec::with_capacity(page_cap + 1);
    out_ptr.push(0u64);
    let mut out_dst = Vec::with_capacity(header_capacity(n_links, 1, input_len, "link count")?);
    let mut ext_out = Vec::with_capacity(page_cap);
    let mut site_of = Vec::with_capacity(page_cap);

    for p in 0..n_pages {
        let site = read_varint(r)?;
        if site >= n_sites {
            return Err(invalid(format!("page {p}: site {site} out of range")));
        }
        let ext = read_varint(r)?;
        if ext > u64::from(u32::MAX) {
            return Err(invalid(format!("page {p}: external degree exceeds u32")));
        }
        let deg = read_varint(r)?;
        let mut prev = 0u64;
        for _ in 0..deg {
            prev += read_varint(r)?;
            if prev >= n_pages as u64 {
                return Err(invalid(format!("page {p}: destination {prev} out of range")));
            }
            out_dst.push(prev as u32);
        }
        out_ptr.push(out_dst.len() as u64);
        ext_out.push(ext as u32);
        site_of.push(site as u32);
    }
    if out_dst.len() as u64 != n_links {
        return Err(invalid(format!(
            "link count mismatch: header says {n_links}, rows carry {}",
            out_dst.len()
        )));
    }
    Ok(WebGraph::from_parts(out_ptr, out_dst, ext_out, site_of, site_names))
}

/// Magic prefix of one delta record appended after a snapshot's page rows
/// (`"DPRD1\n"`). A snapshot file may carry any number of delta records;
/// [`read_snapshot`] ignores them (backward compatible), and
/// [`read_snapshot_with_deltas`] parses them.
pub const DELTA_MAGIC: &[u8; 6] = b"DPRD1\n";

// Op tags of the delta-record wire format.
const OP_ADD_LINK: u8 = 0;
const OP_REMOVE_LINK: u8 = 1;
const OP_SET_EXTERNAL: u8 = 2;
const OP_SET_LINKS: u8 = 3;
const OP_INSERT_PAGE: u8 = 4;
const OP_DELETE_PAGE: u8 = 5;
const OP_SPLIT_SITE: u8 = 6;

fn write_sorted_ids<W: Write>(w: &mut W, ids: &[u32]) -> io::Result<()> {
    // Canonical form: ascending, delta-encoded — the same encoding page
    // rows use.
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    write_varint(w, sorted.len() as u64)?;
    let mut prev = 0u32;
    for v in sorted {
        write_varint(w, u64::from(v - prev))?;
        prev = v;
    }
    Ok(())
}

fn read_sorted_ids<R: Read>(r: &mut R) -> io::Result<Vec<u32>> {
    let n = read_varint(r)?;
    if n > u64::from(u32::MAX) {
        return Err(invalid("delta id list exceeds u32 length"));
    }
    let mut ids = Vec::with_capacity(header_capacity(n, 1, None, "id count")?);
    let mut prev = 0u64;
    for _ in 0..n {
        prev += read_varint(r)?;
        if prev > u64::from(u32::MAX) {
            return Err(invalid("delta id exceeds u32"));
        }
        ids.push(prev as u32);
    }
    Ok(ids)
}

fn read_u32_varint<R: Read>(r: &mut R, what: &str) -> io::Result<u32> {
    let v = read_varint(r)?;
    u32::try_from(v).map_err(|_| invalid(format!("{what} exceeds u32")))
}

/// Appends one delta record (`DPRD1` magic + ops) to `w`.
///
/// Destination lists are written in canonical sorted order, so a delta
/// read back compares equal op for op up to row ordering (applying either
/// produces the identical graph).
///
/// # Errors
/// Propagates I/O failures from the underlying writer.
pub fn write_delta<W: Write>(d: &GraphDelta, w: &mut W) -> io::Result<()> {
    w.write_all(DELTA_MAGIC)?;
    write_varint(w, d.ops.len() as u64)?;
    for op in &d.ops {
        match op {
            DeltaOp::AddLink { from, to } => {
                w.write_all(&[OP_ADD_LINK])?;
                write_varint(w, u64::from(*from))?;
                write_varint(w, u64::from(*to))?;
            }
            DeltaOp::RemoveLink { from, to } => {
                w.write_all(&[OP_REMOVE_LINK])?;
                write_varint(w, u64::from(*from))?;
                write_varint(w, u64::from(*to))?;
            }
            DeltaOp::SetExternal { page, ext_out } => {
                w.write_all(&[OP_SET_EXTERNAL])?;
                write_varint(w, u64::from(*page))?;
                write_varint(w, u64::from(*ext_out))?;
            }
            DeltaOp::SetLinks { page, ext_out, links } => {
                w.write_all(&[OP_SET_LINKS])?;
                write_varint(w, u64::from(*page))?;
                write_varint(w, u64::from(*ext_out))?;
                write_sorted_ids(w, links)?;
            }
            DeltaOp::InsertPage { site, ext_out, links } => {
                w.write_all(&[OP_INSERT_PAGE])?;
                write_varint(w, u64::from(*site))?;
                write_varint(w, u64::from(*ext_out))?;
                write_sorted_ids(w, links)?;
            }
            DeltaOp::DeletePage { page } => {
                w.write_all(&[OP_DELETE_PAGE])?;
                write_varint(w, u64::from(*page))?;
            }
            DeltaOp::SplitSite { new_site, pages } => {
                w.write_all(&[OP_SPLIT_SITE])?;
                write_varint(w, new_site.len() as u64)?;
                w.write_all(new_site.as_bytes())?;
                write_sorted_ids(w, pages)?;
            }
        }
    }
    Ok(())
}

/// Reads one delta record (including its `DPRD1` magic) from `r`.
///
/// # Errors
/// Returns [`io::ErrorKind::InvalidData`] on malformed input, and
/// propagates underlying I/O failures.
pub fn read_delta<R: Read>(r: &mut R) -> io::Result<GraphDelta> {
    let mut magic = [0u8; 6];
    r.read_exact(&mut magic)?;
    if &magic != DELTA_MAGIC {
        return Err(invalid("bad delta magic"));
    }
    read_delta_body(r)
}

fn read_delta_body<R: Read>(r: &mut R) -> io::Result<GraphDelta> {
    let n_ops = read_varint(r)?;
    if n_ops > u64::from(u32::MAX) {
        return Err(invalid("delta op count exceeds u32"));
    }
    let mut ops = Vec::with_capacity(header_capacity(n_ops, 2, None, "op count")?);
    for _ in 0..n_ops {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        ops.push(match tag[0] {
            OP_ADD_LINK => DeltaOp::AddLink {
                from: read_u32_varint(r, "link source")?,
                to: read_u32_varint(r, "link target")?,
            },
            OP_REMOVE_LINK => DeltaOp::RemoveLink {
                from: read_u32_varint(r, "link source")?,
                to: read_u32_varint(r, "link target")?,
            },
            OP_SET_EXTERNAL => DeltaOp::SetExternal {
                page: read_u32_varint(r, "page id")?,
                ext_out: read_u32_varint(r, "external degree")?,
            },
            OP_SET_LINKS => DeltaOp::SetLinks {
                page: read_u32_varint(r, "page id")?,
                ext_out: read_u32_varint(r, "external degree")?,
                links: read_sorted_ids(r)?,
            },
            OP_INSERT_PAGE => DeltaOp::InsertPage {
                site: read_u32_varint(r, "site id")?,
                ext_out: read_u32_varint(r, "external degree")?,
                links: read_sorted_ids(r)?,
            },
            OP_DELETE_PAGE => DeltaOp::DeletePage { page: read_u32_varint(r, "page id")? },
            OP_SPLIT_SITE => {
                let len = read_varint(r)? as usize;
                if len > 1 << 16 {
                    return Err(invalid("site name too long"));
                }
                let mut buf = vec![0u8; len];
                r.read_exact(&mut buf)?;
                let new_site =
                    String::from_utf8(buf).map_err(|_| invalid("site name is not UTF-8"))?;
                DeltaOp::SplitSite { new_site, pages: read_sorted_ids(r)? }
            }
            other => return Err(invalid(format!("unknown delta op tag {other}"))),
        });
    }
    Ok(GraphDelta { ops })
}

/// The number of bytes [`write_delta`] puts on the wire for `d` — the
/// honest size of a crawl delta shipped to a page ranker.
#[must_use]
pub fn delta_wire_bytes(d: &GraphDelta) -> u64 {
    let mut buf = Vec::new();
    write_delta(d, &mut buf).expect("Vec<u8> writes are infallible");
    buf.len() as u64
}

/// Reads a binary snapshot plus every `DPRD1` delta record appended after
/// its page rows (in file order). A snapshot with no trailing records
/// yields an empty delta list.
///
/// # Errors
/// Returns [`io::ErrorKind::InvalidData`] on malformed input — including
/// trailing bytes that are not a well-formed delta record — and propagates
/// underlying I/O failures.
pub fn read_snapshot_with_deltas<R: BufRead>(mut r: R) -> io::Result<(WebGraph, Vec<GraphDelta>)> {
    let g = read_snapshot_body(&mut r, None)?;
    let mut deltas = Vec::new();
    loop {
        if r.fill_buf()?.is_empty() {
            return Ok((g, deltas));
        }
        deltas.push(read_delta(&mut r)?);
    }
}

/// Writes `g` as a binary snapshot at `path`.
///
/// # Errors
/// Propagates I/O failures.
pub fn save_snapshot(g: &WebGraph, path: impl AsRef<std::path::Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_snapshot(g, io::BufWriter::new(f))
}

/// Reads a binary snapshot from `path`.
///
/// # Errors
/// Propagates I/O failures and malformed-snapshot errors from
/// [`read_snapshot`].
pub fn load_snapshot(path: impl AsRef<std::path::Path>) -> io::Result<WebGraph> {
    let f = std::fs::File::open(path)?;
    let len = f.metadata()?.len();
    read_snapshot_body(&mut io::BufReader::new(f), Some(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random, toy};

    fn roundtrip(g: &WebGraph) -> WebGraph {
        let mut buf = Vec::new();
        write_graph(g, &mut buf).unwrap();
        read_graph(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_toy() {
        let g = toy::two_cliques(4);
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn roundtrip_leaky() {
        let g = toy::leaky_cycle(7, 3);
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn roundtrip_random() {
        let g = random::erdos_renyi(300, 7, 4.5, 11);
        assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = toy::cycle(3);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let noisy = format!("# a comment\n\n{}\n# trailing\n", text);
        assert_eq!(read_graph(noisy.as_bytes()).unwrap(), g);
    }

    #[test]
    fn bad_header_rejected() {
        let err = read_graph("not-a-graph\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseError::Format { .. }));
    }

    #[test]
    fn truncated_file_rejected() {
        let g = toy::cycle(3);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(read_graph(buf.as_slice()).is_err());
    }

    fn snapshot_roundtrip(g: &WebGraph) -> WebGraph {
        let mut cur = io::Cursor::new(Vec::new());
        write_snapshot(g, &mut cur).unwrap();
        read_snapshot(cur.into_inner().as_slice()).unwrap()
    }

    #[test]
    fn snapshot_roundtrip_toy() {
        let g = toy::two_cliques(4);
        assert_eq!(snapshot_roundtrip(&g), g);
    }

    #[test]
    fn snapshot_roundtrip_random() {
        let g = random::erdos_renyi(300, 7, 4.5, 11);
        assert_eq!(snapshot_roundtrip(&g), g);
    }

    #[test]
    fn snapshot_roundtrip_empty() {
        let g = GraphBuilder::new().build();
        assert_eq!(snapshot_roundtrip(&g), g);
    }

    #[test]
    fn varint_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn snapshot_is_compact() {
        let g = random::erdos_renyi(2_000, 4, 6.0, 7);
        let mut cur = io::Cursor::new(Vec::new());
        write_snapshot(&g, &mut cur).unwrap();
        let bytes = cur.into_inner().len();
        let per_link = bytes as f64 / g.n_internal_links() as f64;
        assert!(per_link < 3.0, "snapshot costs {per_link:.2} bytes/link");
    }

    #[test]
    fn snapshot_bad_magic_rejected() {
        let err = read_snapshot(&b"NOPE!\nxxxx"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn snapshot_truncation_rejected() {
        let g = toy::two_cliques(4);
        let mut cur = io::Cursor::new(Vec::new());
        write_snapshot(&g, &mut cur).unwrap();
        let mut buf = cur.into_inner();
        buf.truncate(buf.len() - 2);
        assert!(read_snapshot(buf.as_slice()).is_err());
    }

    #[test]
    fn snapshot_out_of_range_destination_rejected() {
        // One site ("a", name len 1), one page whose single destination
        // delta-decodes to page id 7 — out of range for a 1-page graph.
        let mut buf = Vec::new();
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&[1, 1, b'a', 1]); // sites, name, n_pages
        buf.extend_from_slice(&1u64.to_le_bytes()); // n_links
        buf.extend_from_slice(&[0, 0, 1, 7]); // site, ext, deg, delta
        let err = read_snapshot(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn snapshot_link_count_mismatch_rejected() {
        let g = toy::cycle(3);
        let mut cur = io::Cursor::new(Vec::new());
        write_snapshot(&g, &mut cur).unwrap();
        let mut buf = cur.into_inner();
        // Corrupt the backpatched n_links field (right after the header:
        // magic + sites varint + "a.edu" site entry + pages varint).
        let links_at = buf.len() - 3 * 4 - 8; // 3 page rows of 4 bytes each
        buf[links_at] ^= 1;
        let err = read_snapshot(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// The 20-byte header that used to abort the process on a 34 GB
    /// allocation: no sites, `n_pages = u32::MAX`, `n_links = u64::MAX`.
    fn hostile_snapshot_header() -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        write_varint(&mut buf, 0).unwrap();
        write_varint(&mut buf, u64::from(u32::MAX)).unwrap();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(buf.len(), 20);
        buf
    }

    #[test]
    fn snapshot_header_counts_are_checked_against_the_file_length() {
        let path =
            std::env::temp_dir().join(format!("dpr-graph-hostile-{}.dprg", std::process::id()));
        std::fs::write(&path, hostile_snapshot_header()).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("page count"), "{err}");
        // A valid file of the same reader still loads.
        let g = toy::two_cliques(4);
        let path =
            std::env::temp_dir().join(format!("dpr-graph-valid-{}.dprg", std::process::id()));
        save_snapshot(&g, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn snapshot_header_counts_of_unknown_length_input_fail_closed() {
        let err = read_snapshot(hostile_snapshot_header().as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // The same through the delta-aware reader.
        assert!(read_snapshot_with_deltas(hostile_snapshot_header().as_slice()).is_err());
    }

    #[test]
    fn delta_header_counts_fail_closed() {
        // `n_ops = u32::MAX` with no ops behind it.
        let mut buf = DELTA_MAGIC.to_vec();
        write_varint(&mut buf, u64::from(u32::MAX)).unwrap();
        let err = read_delta(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // One `SetLinks` op whose id list claims `u32::MAX` entries.
        let mut buf = DELTA_MAGIC.to_vec();
        write_varint(&mut buf, 1).unwrap();
        buf.push(OP_SET_LINKS);
        buf.extend_from_slice(&[0, 0]);
        write_varint(&mut buf, u64::from(u32::MAX)).unwrap();
        let err = read_delta(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    #[should_panic(expected = "destinations must be sorted")]
    fn snapshot_writer_rejects_unsorted_rows() {
        let mut cur = io::Cursor::new(Vec::new());
        {
            let mut w = SnapshotWriter::new(&mut cur, &["a".to_string()], 1).unwrap();
            w.page(0, 0, &[0, 0, 0]).unwrap(); // fine: duplicates allowed
        }
        let mut cur = io::Cursor::new(Vec::new());
        let mut w = SnapshotWriter::new(&mut cur, &["a".to_string()], 2).unwrap();
        w.page(0, 0, &[1, 0]).unwrap();
    }

    fn every_op_delta() -> GraphDelta {
        GraphDelta::new(vec![
            DeltaOp::AddLink { from: 0, to: 2 },
            DeltaOp::RemoveLink { from: 1, to: 0 },
            DeltaOp::SetExternal { page: 2, ext_out: 9 },
            DeltaOp::SetLinks { page: 3, ext_out: 1, links: vec![0, 1, 1, 4] },
            DeltaOp::InsertPage { site: 0, ext_out: 0, links: vec![2, 3] },
            DeltaOp::DeletePage { page: 5 },
            DeltaOp::SplitSite { new_site: "split.example.edu".to_string(), pages: vec![1, 4] },
        ])
    }

    #[test]
    fn delta_record_roundtrip_covers_every_op() {
        let d = every_op_delta();
        let mut buf = Vec::new();
        write_delta(&d, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, delta_wire_bytes(&d));
        assert_eq!(read_delta(&mut buf.as_slice()).unwrap(), d);
    }

    #[test]
    fn read_snapshot_ignores_trailing_delta_records() {
        // Backward compatibility: a pre-delta reader must load the base
        // graph of a snapshot file that carries delta records.
        let g = toy::two_cliques(4);
        let mut cur = io::Cursor::new(Vec::new());
        write_snapshot(&g, &mut cur).unwrap();
        let mut buf = cur.into_inner();
        write_delta(&GraphDelta::new(vec![DeltaOp::DeletePage { page: 0 }]), &mut buf).unwrap();
        assert_eq!(read_snapshot(buf.as_slice()).unwrap(), g);
    }

    #[test]
    fn read_snapshot_with_deltas_parses_records_in_order() {
        let g = toy::cycle(5);
        let d1 = GraphDelta::new(vec![DeltaOp::AddLink { from: 0, to: 2 }]);
        let d2 = GraphDelta::new(vec![DeltaOp::DeletePage { page: 3 }]);
        let mut cur = io::Cursor::new(Vec::new());
        write_snapshot(&g, &mut cur).unwrap();
        let mut buf = cur.into_inner();
        write_delta(&d1, &mut buf).unwrap();
        write_delta(&d2, &mut buf).unwrap();
        let (base, deltas) = read_snapshot_with_deltas(buf.as_slice()).unwrap();
        assert_eq!(base, g);
        assert_eq!(deltas, vec![d1, d2]);
    }

    #[test]
    fn read_snapshot_with_deltas_empty_tail_yields_no_records() {
        let g = toy::cycle(3);
        let mut cur = io::Cursor::new(Vec::new());
        write_snapshot(&g, &mut cur).unwrap();
        let (base, deltas) = read_snapshot_with_deltas(cur.into_inner().as_slice()).unwrap();
        assert_eq!(base, g);
        assert!(deltas.is_empty());
    }

    #[test]
    fn read_snapshot_with_deltas_rejects_garbage_tail() {
        let g = toy::cycle(3);
        let mut cur = io::Cursor::new(Vec::new());
        write_snapshot(&g, &mut cur).unwrap();
        let mut buf = cur.into_inner();
        buf.extend_from_slice(b"JUNK!\n");
        let err = read_snapshot_with_deltas(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn delta_unknown_op_tag_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(DELTA_MAGIC);
        buf.extend_from_slice(&[1, 99]); // one op, bogus tag
        let err = read_delta(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn delta_encoding_canonicalizes_unsorted_lists() {
        let d =
            GraphDelta::new(vec![DeltaOp::SetLinks { page: 0, ext_out: 0, links: vec![3, 1, 2] }]);
        let mut buf = Vec::new();
        write_delta(&d, &mut buf).unwrap();
        let back = read_delta(&mut buf.as_slice()).unwrap();
        assert_eq!(back.ops, vec![DeltaOp::SetLinks { page: 0, ext_out: 0, links: vec![1, 2, 3] }]);
    }
}
