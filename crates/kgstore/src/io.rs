//! Loading and saving scored triples.
//!
//! The on-disk format is a scored TSV — one triple per line:
//!
//! ```text
//! subject<TAB>predicate<TAB>object<TAB>score
//! ```
//!
//! Lines starting with `#` and blank lines are skipped; the score column is
//! optional and defaults to 1.0 (so plain three-column dumps of unscored
//! KGs load too). CRLF line endings are tolerated. Scores must be finite
//! and non-negative — NaN, infinities and negative values are rejected with
//! a line-numbered error. This covers both of the paper's data shapes —
//! YAGO-style entity triples with inlink counts and tweet–tag triples with
//! retweet counts — without committing to a full RDF serialization parser.

use crate::builder::KnowledgeGraphBuilder;
use crate::store::KnowledgeGraph;
use crate::triple::TripleScore;
use specqp_common::{Error, Result};
use std::io::{BufRead, Write};

/// Reads a scored-TSV stream into a builder (so callers can keep adding
/// triples or pick a duplicate policy first).
pub fn read_tsv_into(reader: impl BufRead, builder: &mut KnowledgeGraphBuilder) -> Result<usize> {
    let mut added = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| Error::Parse(format!("line {}: {e}", lineno + 1)))?;
        // CRLF dumps (Windows exports, HTTP bodies) are tolerated:
        // `BufRead::lines` strips a trailing CRLF pair, and `trim` catches
        // any stray `\r` — covered by the crlf_line_endings_tolerated test.
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut cols = trimmed.split('\t');
        let (Some(s), Some(p), Some(o)) = (cols.next(), cols.next(), cols.next()) else {
            return Err(Error::Parse(format!(
                "line {}: expected at least 3 tab-separated columns",
                lineno + 1
            )));
        };
        let score = match cols.next() {
            None | Some("") => 1.0,
            Some(raw) => raw.trim().parse::<f64>().map_err(|e| {
                Error::Parse(format!("line {}: bad score {raw:?}: {e}", lineno + 1))
            })?,
        };
        let Some(score) = TripleScore::try_new(score) else {
            return Err(Error::Parse(format!(
                "line {}: score must be finite and non-negative, got {score}",
                lineno + 1
            )));
        };
        builder.add(s.trim(), p.trim(), o.trim(), score.value());
        added += 1;
    }
    Ok(added)
}

/// Reads a scored-TSV stream into a fresh graph (duplicates keep the max
/// score, as in [`KnowledgeGraphBuilder::add_ids`]).
pub fn read_tsv(reader: impl BufRead) -> Result<KnowledgeGraph> {
    let mut b = KnowledgeGraphBuilder::new();
    read_tsv_into(reader, &mut b)?;
    Ok(b.build())
}

/// Writes the graph as scored TSV, one triple per storage row, resolving
/// ids through the graph's dictionary.
pub fn write_tsv(graph: &KnowledgeGraph, mut writer: impl Write) -> Result<()> {
    let dict = graph.dictionary();
    for st in graph.iter_scored() {
        writeln!(
            writer,
            "{}\t{}\t{}\t{}",
            dict.name_or_unknown(st.triple.s),
            dict.name_or_unknown(st.triple.p),
            dict.name_or_unknown(st.triple.o),
            st.score.value(),
        )
        .map_err(|e| Error::Internal(format!("write failed: {e}")))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternKey;

    #[test]
    fn load_with_scores_and_comments() {
        let data = "\
# a comment
alice\trdf:type\tsinger\t12.5

bob\trdf:type\tsinger\t3
carol\trdf:type\tsinger
";
        let g = read_tsv(data.as_bytes()).unwrap();
        assert_eq!(g.len(), 3);
        let d = g.dictionary();
        let ty = d.lookup("rdf:type").unwrap();
        let singer = d.lookup("singer").unwrap();
        let list = g.matches(PatternKey::po(ty, singer));
        assert_eq!(list.score_at(0).value(), 12.5);
        // Missing score column defaults to 1.0.
        assert_eq!(list.score_at(2).value(), 1.0);
    }

    #[test]
    fn roundtrip_preserves_triples_and_scores() {
        let data = "a\tp\tb\t2\nb\tp\tc\t7\na\tq\tc\t1\n";
        let g = read_tsv(data.as_bytes()).unwrap();
        let mut out = Vec::new();
        write_tsv(&g, &mut out).unwrap();
        let g2 = read_tsv(out.as_slice()).unwrap();
        assert_eq!(g.len(), g2.len());
        for st in g.iter_scored() {
            let d = g.dictionary();
            let d2 = g2.dictionary();
            let s = d2.lookup(d.name_or_unknown(st.triple.s)).unwrap();
            let p = d2.lookup(d.name_or_unknown(st.triple.p)).unwrap();
            let o = d2.lookup(d.name_or_unknown(st.triple.o)).unwrap();
            assert_eq!(g2.score_of(s, p, o), Some(st.score));
        }
    }

    #[test]
    fn duplicate_lines_keep_max_score() {
        let data = "a\tp\tb\t2\na\tp\tb\t9\na\tp\tb\t4\n";
        let g = read_tsv(data.as_bytes()).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.score(0).value(), 9.0);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let e = read_tsv("just-one-column\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        let e = read_tsv("a\tp\tb\tNaN\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        let e = read_tsv("a\tp\tb\t-3\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("non-negative"), "{e}");
    }

    #[test]
    fn nan_and_infinite_scores_rejected_with_line_number() {
        // NaN parses as a float, so it must be caught by the finiteness
        // check, not the parse — and still carry the 1-based line number.
        for bad in ["NaN", "nan", "-NaN", "inf", "-inf", "infinity"] {
            let data = format!("ok\tp\to\t1\na\tp\tb\t{bad}\n");
            let e = read_tsv(data.as_bytes()).unwrap_err();
            let msg = e.to_string();
            assert!(msg.contains("line 2"), "{bad}: {msg}");
            assert!(msg.contains("finite"), "{bad}: {msg}");
        }
    }

    #[test]
    fn negative_scores_rejected_with_line_number() {
        let e = read_tsv("a\tp\tb\t5\nc\tp\td\t-0.5\n".as_bytes()).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("non-negative"), "{msg}");
    }

    #[test]
    fn crlf_line_endings_tolerated() {
        // 4-column, 3-column and comment/blank lines, all CRLF-terminated.
        let data = "# comment\r\na\tp\tb\t2.5\r\n\r\nc\tp\td\r\n";
        let g = read_tsv(data.as_bytes()).unwrap();
        assert_eq!(g.len(), 2);
        let d = g.dictionary();
        let (a, p, b) = (
            d.lookup("a").unwrap(),
            d.lookup("p").unwrap(),
            d.lookup("b").unwrap(),
        );
        assert_eq!(g.score_of(a, p, b).unwrap().value(), 2.5);
        // The 3-column CRLF line must not grow a "d\r" term.
        assert!(d.lookup("d").is_some());
        assert!(d.lookup("d\r").is_none());
        let (c, dd) = (d.lookup("c").unwrap(), d.lookup("d").unwrap());
        assert_eq!(g.score_of(c, p, dd).unwrap().value(), 1.0);
    }

    #[test]
    fn three_column_lines_default_score_to_one() {
        let g = read_tsv("x\tq\ty\nx\tq\tz\t\n".as_bytes()).unwrap();
        assert_eq!(g.len(), 2);
        for st in g.iter_scored() {
            assert_eq!(st.score.value(), 1.0);
        }
    }

    #[test]
    fn read_into_existing_builder_composes() {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("x", "p", "y", 1.0);
        let n = read_tsv_into("a\tp\tb\t2\n".as_bytes(), &mut b).unwrap();
        assert_eq!(n, 1);
        let g = b.build();
        assert_eq!(g.len(), 2);
    }
}
