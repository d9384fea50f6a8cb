//! The JSON reader's number decoder is bit-identical to `str::parse::<f64>`
//! (its fast path must never round differently), and its string decoder
//! runs in linear time.

use std::time::{Duration, Instant};

use einet_trace::json::{self, JsonReader, JsonValue};

/// splitmix64: a tiny deterministic generator (the crate has no
/// dev-dependencies).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Decodes `text` through `json::parse` and through the reader's
/// `number`, and checks both against `str::parse::<f64>`: the same bits
/// on success, an error on both sides otherwise. (A JSON value starts
/// with `-` or a digit, so `.5`, which std accepts, is not a number here.)
fn assert_decodes_like_std(text: &str) {
    let want = if text.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
        text.parse::<f64>().map_err(drop)
    } else {
        Err(())
    };
    let tree = json::parse(text);
    let mut reader = JsonReader::new(text);
    let read = reader.number().and_then(|x| reader.end().map(|()| x));
    match want {
        Ok(w) => {
            let Ok(JsonValue::Number(got)) = tree else {
                panic!("{text:?}: parse gave {tree:?}, std gave {w:?}");
            };
            assert_eq!(got.to_bits(), w.to_bits(), "{text:?}: {got:?} vs {w:?}");
            let got = read.unwrap_or_else(|e| panic!("{text:?}: reader failed: {e}"));
            assert_eq!(got.to_bits(), w.to_bits(), "{text:?}: {got:?} vs {w:?}");
        }
        Err(_) => {
            assert!(tree.is_err(), "{text:?}: std rejects, parse gave {tree:?}");
            assert!(read.is_err(), "{text:?}: std rejects, reader gave {read:?}");
        }
    }
}

#[test]
fn shortest_renderings_of_random_floats_decode_exactly() {
    let mut rng = Rng(1);
    for i in 0..100_000 {
        let bits = rng.next();
        // Every fourth draw has a zero exponent field: a subnormal.
        let (f32_bits, f64_bits) = if i % 4 == 0 {
            (bits as u32 & 0x807F_FFFF, bits & 0x800F_FFFF_FFFF_FFFF)
        } else {
            (bits as u32, bits)
        };
        let x = f32::from_bits(f32_bits);
        if x.is_finite() {
            assert_decodes_like_std(&x.to_string());
            assert_decodes_like_std(&format!("{x:e}"));
        }
        let y = f64::from_bits(f64_bits);
        if y.is_finite() {
            assert_decodes_like_std(&y.to_string());
            assert_decodes_like_std(&format!("{y:e}"));
        }
        // The serving benchmark's pixels: f32 in a small range.
        let pixel = (bits >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0;
        assert_decodes_like_std(&pixel.to_string());
    }
}

#[test]
fn random_decimal_strings_decode_exactly() {
    let mut rng = Rng(2);
    for _ in 0..200_000 {
        let mut text = String::new();
        if rng.below(2) == 0 {
            text.push('-');
        }
        let digits = 1 + rng.below(25) as usize;
        let point = rng.below(digits as u64 + 2) as usize;
        for d in 0..digits {
            if d == point {
                text.push('.');
            }
            // Bias toward zeros so leading/trailing zero runs show up.
            let digit = if rng.below(3) == 0 { 0 } else { rng.below(10) };
            text.push(char::from(b'0' + digit as u8));
        }
        if rng.below(3) != 0 {
            text.push(if rng.below(2) == 0 { 'e' } else { 'E' });
            match rng.below(3) {
                0 => text.push('-'),
                1 => text.push('+'),
                _ => {}
            }
            let exp = rng.below(401);
            text.push_str(&exp.to_string());
        }
        assert_decodes_like_std(&text);
    }
}

#[test]
fn fast_path_boundaries_decode_exactly() {
    let zeros = "0".repeat(400);
    let long_cases = [
        format!("0.{zeros}1"),
        format!("{zeros}1"),
        format!("-{zeros}.5e3"),
        format!("1{zeros}"),
        format!("0.{zeros}"),
        format!("1e{zeros}"),
        format!("1e{zeros}5"),
        "1e99999999999999999999999".to_string(),
        "-1.5e-18446744073709551617".to_string(),
        format!("0.{zeros}1e-9223372036854775808"),
        format!("123456789012345678901234567890e-{}", 30),
    ];
    let fixed = [
        "9007199254740992",
        "9007199254740993",
        "9007199254740991",
        "-9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "9999999999999999999",
        "10000000000000000000",
        "1e22",
        "1e23",
        "9007199254740992e22",
        "9007199254740993e-22",
        "1e-22",
        "1e-23",
        "0.1",
        "0.2",
        "0.3",
        "-0",
        "-0.0",
        "0",
        "0e400",
        "-0e-400",
        "0.000012345678",
        "0.0000000000000000000000001",
        "1.7976931348623157e308",
        "1.7976931348623159e308",
        "2.2250738585072014e-308",
        "4.9e-324",
        "2.4e-324",
        "1e400",
        "-1e400",
        "3.0",
        "3e0",
        "1.",
        "-.5",
        "01",
        "1.e5",
        "1E+5",
        // Rejected by std (and so by the reader).
        "-",
        "1e",
        "1e+",
        "1E-",
        "-e5",
        ".",
        "-.",
        ".e1",
    ];
    for text in fixed
        .iter()
        .copied()
        .chain(long_cases.iter().map(String::as_str))
    {
        assert_decodes_like_std(text);
    }
}

#[test]
fn megabyte_strings_parse_in_linear_time() {
    // Plain ASCII, multi-byte UTF-8 and escapes, each in long runs: the
    // parser once re-validated the whole remaining input per character.
    let plain = "a".repeat(1 << 20);
    let multibyte = "é😀x".repeat(1 << 17);
    let escaped = "ab\\n\\u00e9\\\"".repeat(1 << 16);
    let started = Instant::now();
    let v = json::parse(&format!("\"{plain}\"")).expect("plain string");
    assert_eq!(v.as_str().map(str::len), Some(1 << 20));
    let v = json::parse(&format!("[\"{multibyte}\"]")).expect("utf-8 string");
    assert_eq!(v.as_array().unwrap()[0].as_str(), Some(multibyte.as_str()));
    let v = json::parse(&format!("{{\"k\": \"{escaped}\"}}")).expect("escaped string");
    assert_eq!(
        v.get("k").and_then(JsonValue::as_str),
        Some("ab\né\"".repeat(1 << 16).as_str())
    );
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "parsing ~3.5 MB of strings took {elapsed:?}"
    );
}

#[test]
fn reader_walks_objects_in_place_and_borrows_plain_strings() {
    let text =
        r#" {"a": "plain", "b": "esc\"aped", "n": [1, -2.5e1, 3], "x": {"y": [true, null]}} "#;
    let mut r = JsonReader::new(text);
    let (mut a, mut b, mut n) = (None, None, Vec::new());
    r.object(|r, key| match &*key {
        "a" => r.string().map(|s| a = Some(s)),
        "b" => r.string().map(|s| b = Some(s)),
        "n" => r.array(|r| r.number().map(|x| n.push(x))),
        _ => r.skip_value(),
    })
    .expect("valid object");
    r.end().expect("nothing trailing");
    assert!(matches!(a, Some(std::borrow::Cow::Borrowed("plain"))));
    assert_eq!(b.as_deref(), Some("esc\"aped"));
    assert_eq!(n, [1.0, -25.0, 3.0]);
}

#[test]
fn skipping_validates_like_building() {
    for text in [
        r#"{"a": [1, {"b": "c"}], "d": null}"#,
        r#"{"a": [1, {"b": "c"}], "d": nul}"#,
        r#"{"a": [1, {"b": "c\q"}]}"#,
        r#"{"a": [1, {"b" "c"}]}"#,
        r#"{"a": [1 2]}"#,
        r#"{"a": "\ud800x"}"#,
        r#"{"a": 1e}"#,
        "[1, 2] x",
        "",
    ] {
        let built = json::parse(text).map(drop);
        let mut r = JsonReader::new(text);
        let skipped = r.skip_value().and_then(|()| r.end());
        assert_eq!(skipped, built, "{text:?}");
    }
}

#[test]
fn number_array_reads_what_array_reads() {
    for text in [
        "[]",
        "[ ]",
        "[1,2,3]",
        "[ 1 , -2.5e3 ,\n0.125\t]",
        r#"["a", 1, null, [2, {"b": 3}], -0]"#,
        "[1,]",
        "[,1]",
        "[1 2]",
        "[1e]",
        "[-]",
        "[1, x]",
        "[1",
        "[1,",
        "[\"unterminated]",
        "{}",
    ] {
        let mut want = Vec::new();
        let mut r = JsonReader::new(text);
        let built = r.array(|r| {
            want.push(r.value()?.as_f64().map(f64::to_bits));
            Ok(())
        });
        let mut got = Vec::new();
        let mut r = JsonReader::new(text);
        let read = r.number_array(|x| got.push(x.map(f64::to_bits)));
        assert_eq!(read, built, "{text:?}");
        if read.is_ok() {
            assert_eq!(got, want, "{text:?}");
        }
    }
}
