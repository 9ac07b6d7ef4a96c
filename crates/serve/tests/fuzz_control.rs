//! Fuzzing the LDJSON control API: arbitrary lines fed to
//! `lips_serve::handle_line` on a live daemon must each come back as a
//! reply object carrying `"ok"` — never a panic — and the daemon must
//! still run an epoch afterwards.
//!
//! Three generators: raw characters, a soup of the API's own JSON tokens,
//! and well-formed commands whose field values come from a pool of edge
//! values (huge, negative, non-finite, wrong-typed).

use lips_cluster::ec2_20_node;
use lips_serve::{handle_line, Daemon, ServeConfig};
use proptest::prelude::*;

/// Fragments of the control grammar, for the token soup.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "\"cmd\"",
    "\"submit\"",
    "\"run\"",
    "\"drain\"",
    "\"status\"",
    "\"metrics\"",
    "\"revoke\"",
    "\"rejoin\"",
    "\"shutdown\"",
    "\"id\"",
    "\"name\"",
    "\"kind\"",
    "\"input_mb\"",
    "\"tasks\"",
    "\"pool\"",
    "\"arrival_s\"",
    "\"read_fraction\"",
    "\"reduce_tasks\"",
    "\"shuffle_mb\"",
    "\"epochs\"",
    "\"max_epochs\"",
    "\"machine\"",
    "\"grep\"",
    "\"pi\"",
    "0",
    "1",
    "-1",
    "7",
    "0.5",
    "1e999",
    "-1e999",
    "4294967295",
    "18446744073709551615",
    "1e400",
    "null",
    "true",
    "\"\\u0000\"",
    "\"é\"",
];

/// Field values, well-formed JSON of every shape the fields might get.
const VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "19",
    "20",
    "64",
    "-1",
    "-0",
    "0.5",
    "1.5",
    "1e-9",
    "1e308",
    "-1e308",
    "1e999",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "null",
    "true",
    "\"grep\"",
    "\"wordcount\"",
    "\"pi\"",
    "\"stress1\"",
    "\"mystery\"",
    "\"\"",
    "\"prod\"",
    "[]",
    "{}",
    "[1,2]",
    "{\"a\":1}",
];

fn raw_line() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x250, 0..48)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn token_line() -> impl Strategy<Value = String> {
    prop::collection::vec(0..TOKENS.len(), 0..24)
        .prop_map(|ts| ts.into_iter().map(|t| TOKENS[t]).collect())
}

/// Each command with its fields and the values each field is tried at:
/// mostly in range, plus the edges just past it.
/// A field and the values it is tried at.
type Field = (&'static str, &'static [&'static str]);

const GRAMMAR: &[(&str, &[Field])] = &[
    (
        "submit",
        &[
            (
                "id",
                &["0", "1", "7", "4294967295", "18446744073709551615", "-1"],
            ),
            ("name", &["\"j\"", "\"\"", "\"\\u0000\"", "\"é\""]),
            (
                "kind",
                &[
                    "\"grep\"",
                    "\"wordcount\"",
                    "\"pi\"",
                    "\"stress2\"",
                    "\"x\"",
                ],
            ),
            (
                "input_mb",
                &["0", "1e-9", "1", "64", "512", "1e6", "1e308", "-1", "1e999"],
            ),
            ("tasks", &["1", "4", "65536", "65537", "0"]),
            ("pool", &["\"prod\"", "\"batch\"", "\"\""]),
            (
                "arrival_s",
                &["0", "1", "500", "1e9", "1e308", "-5", "1e999"],
            ),
            ("read_fraction", &["1e-9", "0.5", "1", "0", "2"]),
            ("reduce_tasks", &["1", "2", "65536", "65537", "0"]),
            ("shuffle_mb", &["1e-9", "1", "128", "1e6", "1e308", "0"]),
        ],
    ),
    (
        "run",
        &[("epochs", &["0", "1", "3", "10001", "18446744073709551615"])],
    ),
    ("drain", &[("max_epochs", &["0", "1", "50", "10001"])]),
    (
        "revoke",
        &[("machine", &["0", "3", "19", "20", "18446744073709551615"])],
    ),
    ("rejoin", &[("machine", &["0", "3", "19", "20"])]),
    ("status", &[]),
    ("metrics", &[]),
    ("shutdown", &[]),
];

fn command_line() -> impl Strategy<Value = String> {
    (
        0..GRAMMAR.len(),
        prop::collection::vec((0usize..16, 0usize..16, 0..VALUES.len()), 10),
    )
        .prop_map(|(c, picks)| {
            let (cmd, fields) = GRAMMAR[c];
            let mut line = format!("{{\"cmd\":\"{cmd}\"");
            for (&(field, values), &(skip, v, stray)) in fields.iter().zip(&picks) {
                // Half the fields are left out, except a drain's budget:
                // the default 10 000 epochs on a submitted 1e19 MB shuffle
                // is hours of honest work, not a fault. One value in 16 is
                // a stray of the wrong shape.
                if skip < 8 && cmd != "drain" {
                    continue;
                }
                let value = if v == 15 {
                    VALUES[stray]
                } else {
                    values[v % values.len()]
                };
                line.push_str(&format!(",\"{field}\":{value}"));
            }
            line.push('}');
            line
        })
}

/// Feed `lines` to a fresh daemon; every reply must be a reply object, and
/// an epoch must still run afterwards.
fn feed(lines: &[String]) -> Result<(), TestCaseError> {
    let mut d = Daemon::new(ec2_20_node(0.5, 1e9), ServeConfig::default());
    for line in lines {
        let (reply, _) = handle_line(&mut d, line);
        prop_assert!(
            reply.starts_with("{\"ok\":true") || reply.starts_with("{\"ok\":false,\"error\":"),
            "{line} -> {reply}"
        );
    }
    let before = d.epochs_run();
    let (reply, stop) = handle_line(&mut d, r#"{"cmd":"run","epochs":1}"#);
    prop_assert!(reply.starts_with("{\"ok\":true") && !stop, "{reply}");
    prop_assert_eq!(d.epochs_run(), before + 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn raw_lines_get_a_reply(lines in prop::collection::vec(raw_line(), 1..6)) {
        feed(&lines)?;
    }

    #[test]
    fn token_soup_gets_a_reply(lines in prop::collection::vec(token_line(), 1..6)) {
        feed(&lines)?;
    }

    #[test]
    fn edge_valued_commands_get_a_reply(lines in prop::collection::vec(command_line(), 1..6)) {
        feed(&lines)?;
    }
}
