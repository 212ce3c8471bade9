//! Chunked upload of `data.csv`.
//!
//! Section 3.2 of the paper: *"The data.csv might be very large. For scalably
//! uploading large datasets, we divide the file into 10,000 lines and send
//! each divided set to our system."*
//!
//! [`split_into_chunks`] performs the client-side split; [`ChunkedUploader`]
//! is the server-side assembler that accepts chunks (possibly out of order),
//! tracks completeness, and yields the parsed batches once every chunk has
//! arrived.

use crate::data_csv::DataBatch;
use crate::error::CsvError;

/// The paper's chunk size: 10,000 lines per chunk.
pub const DEFAULT_CHUNK_LINES: usize = 10_000;

/// One chunk of a `data.csv` upload.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// 0-based chunk index.
    pub index: usize,
    /// Total number of chunks in the upload.
    pub total: usize,
    /// Raw CSV content of this chunk (header only in chunk 0).
    pub content: String,
}

/// Splits a `data.csv` document into chunks of at most `chunk_lines` data
/// lines each. The header (if present) stays on the first chunk only.
/// Blank lines are dropped, line endings (`\n` or `\r\n`) become `\n`, and
/// every chunk ends with one.
pub fn split_into_chunks(content: &str, chunk_lines: usize) -> Vec<Chunk> {
    let chunk_lines = chunk_lines.max(1);
    let mut contents = Vec::new();
    // The current chunk's lines, copied out once the chunk is full.
    let mut lines: Vec<&str> = Vec::new();
    for line in content.lines().filter(|l| !l.trim().is_empty()) {
        lines.push(line);
        if lines.len() == chunk_lines {
            contents.push(join_lines(&lines));
            lines.clear();
        }
    }
    if !lines.is_empty() {
        contents.push(join_lines(&lines));
    }
    let total = contents.len();
    contents
        .into_iter()
        .enumerate()
        .map(|(index, content)| Chunk {
            index,
            total,
            content,
        })
        .collect()
}

/// `lines`, each followed by `\n`, in one string of exactly that size.
fn join_lines(lines: &[&str]) -> String {
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Server-side assembler for a chunked `data.csv` upload.
///
/// Chunks may arrive in any order; each chunk is parsed on receipt so that a
/// malformed chunk is rejected immediately (and can be re-sent) instead of
/// failing the whole upload at the end.
#[derive(Debug, Default)]
pub struct ChunkedUploader {
    expected_total: Option<usize>,
    received: Vec<Option<DataBatch>>,
    rows_received: usize,
}

impl ChunkedUploader {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts one chunk. Returns the number of rows parsed from it.
    pub fn accept(&mut self, chunk: &Chunk) -> Result<usize, CsvError> {
        if chunk.total == 0 || chunk.index >= chunk.total {
            return Err(CsvError::BadHeader {
                file: "data.csv",
                found: format!("chunk {}/{}", chunk.index, chunk.total),
            });
        }
        match self.expected_total {
            None => {
                self.expected_total = Some(chunk.total);
                self.received.resize(chunk.total, None);
            }
            Some(t) if t != chunk.total => {
                return Err(CsvError::BadHeader {
                    file: "data.csv",
                    found: format!("chunk count changed from {t} to {}", chunk.total),
                });
            }
            Some(_) => {}
        }
        let batch = DataBatch::parse(&chunk.content)?;
        let n = batch.len();
        // A re-sent chunk replaces the previous copy, keys and all.
        if let Some(previous) = self.received[chunk.index].replace(batch) {
            self.rows_received -= previous.len();
        }
        self.rows_received += n;
        Ok(n)
    }

    /// Number of chunks received so far.
    pub fn chunks_received(&self) -> usize {
        self.received.iter().filter(|c| c.is_some()).count()
    }

    /// Number of rows received so far.
    pub fn rows_received(&self) -> usize {
        self.rows_received
    }

    /// Whether every expected chunk has arrived.
    pub fn is_complete(&self) -> bool {
        match self.expected_total {
            None => false,
            Some(t) => self.chunks_received() == t,
        }
    }

    /// Missing chunk indices.
    pub fn missing(&self) -> Vec<usize> {
        self.received
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Consumes the assembler, returning one batch per chunk in chunk order.
    /// Errors when chunks are still missing.
    pub fn finish(self) -> Result<Vec<DataBatch>, CsvError> {
        if !self.is_complete() {
            return Err(CsvError::BadHeader {
                file: "data.csv",
                found: format!("upload incomplete, missing chunks {:?}", self.missing()),
            });
        }
        Ok(self.received.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc(rows: usize) -> String {
        let mut s = String::from("id,attribute,time,data\n");
        for i in 0..rows {
            let hour = i % 24;
            let day = 1 + i / 24;
            s.push_str(&format!(
                "{:05},temperature,2016-03-{:02} {:02}:00:00,{}\n",
                i % 7,
                day,
                hour,
                i as f64 * 0.5
            ));
        }
        s
    }

    #[test]
    fn split_counts_lines_correctly() {
        let doc = sample_doc(25);
        // 26 lines including header; chunk size 10 => 3 chunks.
        let chunks = split_into_chunks(&doc, 10);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].total, 3);
        assert!(chunks[0].content.starts_with("id,attribute"));
        assert!(!chunks[1].content.starts_with("id,attribute"));
        let total_lines: usize = chunks.iter().map(|c| c.content.lines().count()).sum();
        assert_eq!(total_lines, 26);
    }

    #[test]
    fn split_matches_the_line_join_definition() {
        // Each chunk is its `chunk_lines` non-blank lines joined by `\n`,
        // plus a final `\n`.
        fn joined(content: &str, chunk_lines: usize) -> Vec<String> {
            let lines: Vec<&str> = content.lines().filter(|l| !l.trim().is_empty()).collect();
            lines
                .chunks(chunk_lines.max(1))
                .map(|c| c.join("\n") + "\n")
                .collect()
        }
        let docs = [
            "id,attribute,time,data\na,x,t,1\nb,x,t,2\n".to_string(),
            "\n\na\r\n  \n\t\nb\r\r\nc\rd\n\r\n e \nlast-no-newline".to_string(),
            "only\r".to_string(),
            "\u{3000}\nwide space above\n大阪,x,t,1\n".to_string(),
            sample_doc(25),
        ];
        for doc in &docs {
            for chunk_lines in [0, 1, 2, 3, 7, 10, 1_000] {
                let chunks = split_into_chunks(doc, chunk_lines);
                let expected = joined(doc, chunk_lines);
                assert_eq!(chunks.len(), expected.len(), "{doc:?} / {chunk_lines}");
                for (i, (chunk, want)) in chunks.iter().zip(&expected).enumerate() {
                    assert_eq!((chunk.index, chunk.total), (i, expected.len()));
                    assert_eq!(&chunk.content, want, "{doc:?} / {chunk_lines}");
                }
            }
        }
    }

    #[test]
    fn split_empty_document() {
        assert!(split_into_chunks("", 10).is_empty());
        assert!(split_into_chunks("\n\n", 10).is_empty());
    }

    #[test]
    fn default_chunk_size_matches_paper() {
        assert_eq!(DEFAULT_CHUNK_LINES, 10_000);
    }

    #[test]
    fn uploader_in_order() {
        let doc = sample_doc(30);
        let chunks = split_into_chunks(&doc, 8);
        let mut up = ChunkedUploader::new();
        for c in &chunks {
            up.accept(c).unwrap();
        }
        assert!(up.is_complete());
        let batches = up.finish().unwrap();
        assert_eq!(batches.iter().map(DataBatch::len).sum::<usize>(), 30);
    }

    #[test]
    fn uploader_out_of_order_and_resend() {
        let doc = sample_doc(20);
        let chunks = split_into_chunks(&doc, 7);
        let mut up = ChunkedUploader::new();
        up.accept(&chunks[2]).unwrap();
        assert!(!up.is_complete());
        assert_eq!(up.missing(), vec![0, 1]);
        up.accept(&chunks[0]).unwrap();
        up.accept(&chunks[1]).unwrap();
        // Resend a chunk: row count must not double-count.
        up.accept(&chunks[1]).unwrap();
        assert_eq!(up.rows_received(), 20);
        assert!(up.is_complete());
        let batches = up.finish().unwrap();
        // Batches come back in chunk order => the first chunk's rows first.
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].keys()[0].0.as_str(), "00000");
        assert_eq!(batches[0], DataBatch::parse(&chunks[0].content).unwrap());
    }

    #[test]
    fn resent_chunk_replaces_rows_and_keys() {
        let mut up = ChunkedUploader::new();
        let first = Chunk {
            index: 0,
            total: 1,
            content: "s1,x,2016-03-01 00:00:00,1\nghost,x,2016-03-01 01:00:00,2\n".into(),
        };
        let resent = Chunk {
            content: "s1,x,2016-03-01 00:00:00,5\n".into(),
            ..first.clone()
        };
        assert_eq!(up.accept(&first).unwrap(), 2);
        assert_eq!(up.accept(&resent).unwrap(), 1);
        assert_eq!(up.rows_received(), 1);
        let batches = up.finish().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].keys().len(), 1);
        assert_eq!(batches[0].readings()[0].value, Some(5.0));
    }

    #[test]
    fn uploader_rejects_incomplete_finish() {
        let doc = sample_doc(20);
        let chunks = split_into_chunks(&doc, 7);
        let mut up = ChunkedUploader::new();
        up.accept(&chunks[0]).unwrap();
        assert!(up.finish().is_err());
    }

    #[test]
    fn uploader_rejects_inconsistent_totals() {
        let doc = sample_doc(20);
        let chunks = split_into_chunks(&doc, 7);
        let mut up = ChunkedUploader::new();
        up.accept(&chunks[0]).unwrap();
        let mut bad = chunks[1].clone();
        bad.total = 99;
        assert!(up.accept(&bad).is_err());
    }

    #[test]
    fn uploader_rejects_bad_index() {
        let mut up = ChunkedUploader::new();
        let bad = Chunk {
            index: 5,
            total: 3,
            content: String::new(),
        };
        assert!(up.accept(&bad).is_err());
    }

    #[test]
    fn malformed_chunk_rejected_immediately() {
        let mut up = ChunkedUploader::new();
        let bad = Chunk {
            index: 0,
            total: 1,
            content: "00000,temperature,not-a-time,1.0\n".to_string(),
        };
        assert!(up.accept(&bad).is_err());
    }
}
