//! Fuzzing the trace readers: arbitrary text fed to `parse_google_tsv` and
//! `parse_swim_tsv` must come back as a typed error or as records — never
//! a panic — and records that parse must convert into jobs.

use lips_workload::{
    google_records_to_jobs, parse_google_tsv, parse_swim_tsv, records_to_jobs, SwimConvertCfg,
};
use proptest::prelude::*;

/// Field values a trace line might carry: in range, at the edges, and
/// the non-numbers `f64::from_str` still accepts.
const FIELDS: &[&str] = &[
    "0",
    "1",
    "3",
    "11",
    "12",
    "0.5",
    "1.5",
    "-1",
    "-0",
    "64",
    "1e6",
    "1e19",
    "1e308",
    "1e999",
    "-1e999",
    "inf",
    "-inf",
    "NaN",
    "18446744073709551615",
    "18446744073709551616",
    "",
    "x",
    "job",
    "#",
    " ",
    "\u{0}",
    "é",
];

fn raw_text() -> impl Strategy<Value = String> {
    // Mostly ASCII, with tabs and newlines frequent enough to form lines.
    prop::collection::vec(0u32..0x110, 0..200).prop_map(|cs| {
        cs.into_iter()
            .filter_map(|c| match c {
                0..=9 => Some('\t'),
                10..=14 => Some('\n'),
                c => char::from_u32(c),
            })
            .collect()
    })
}

/// Lines of 5 to 8 tab-separated fields from [`FIELDS`].
fn field_text() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(0..FIELDS.len(), 5..9), 1..8).prop_map(|lines| {
        lines
            .into_iter()
            .map(|fs| {
                fs.into_iter()
                    .map(|f| FIELDS[f])
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect::<Vec<_>>()
            .join("\n")
    })
}

fn read_both(text: &str) {
    if let Ok(records) = parse_google_tsv(text.as_bytes()) {
        google_records_to_jobs(&records);
    }
    if let Ok(records) = parse_swim_tsv(text.as_bytes()) {
        records_to_jobs(&records, &SwimConvertCfg::default());
        records_to_jobs(
            &records,
            &SwimConvertCfg {
                with_reduce: true,
                ..SwimConvertCfg::default()
            },
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn raw_text_never_panics_a_reader(text in raw_text()) {
        read_both(&text);
    }

    #[test]
    fn edge_fields_never_panic_a_reader(text in field_text()) {
        read_both(&text);
    }
}
