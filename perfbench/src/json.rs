//! The client's JSON reader. The client must not share the server's
//! decoder: its cost would land on the client's side of every round trip
//! and grow with the very layer the benchmark attributes.

use freezeml_service::Json;

/// Parse one JSON value (the whole input must be consumed).
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = P {
        s: src.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct P<'a> {
    s: &'a [u8],
    i: usize,
}

impl P<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.s.get(self.i) == Some(&b']') && items.is_empty() {
                        self.i += 1;
                        return Ok(Json::Arr(items));
                    }
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                loop {
                    self.ws();
                    if self.s.get(self.i) == Some(&b'}') && fields.is_empty() {
                        self.i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    let k = self.string()?;
                    self.ws();
                    if self.s.get(self.i) != Some(&b':') {
                        return Err(self.err("expected `:`"));
                    }
                    self.i += 1;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.i;
                while matches!(
                    self.s.get(self.i),
                    Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                ) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.err("invalid number"))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let h = self
            .s
            .get(self.i..self.i + 4)
            .ok_or_else(|| self.err("short escape"))?;
        let v = std::str::from_utf8(h)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            // Copy the run up to the next quote or escape in one go.
            let run = self.s[self.i..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| self.err("unterminated string"))?;
            out.extend_from_slice(&self.s[self.i..self.i + run]);
            self.i += run;
            if self.s[self.i] == b'"' {
                self.i += 1;
                return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
            }
            self.i += 1;
            let c = match self.s.get(self.i) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    self.i += 1;
                    let hi = self.hex4()?;
                    let cp = if (0xD800..0xDC00).contains(&hi) {
                        if self.s.get(self.i..self.i + 2) != Some(b"\\u") {
                            return Err(self.err("lone surrogate"));
                        }
                        self.i += 2;
                        0x10000
                            + ((hi - 0xD800) << 10)
                            + (self.hex4()?.wrapping_sub(0xDC00) & 0x3FF)
                    } else {
                        hi
                    };
                    let c = char::from_u32(cp).ok_or_else(|| self.err("bad escape"))?;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    continue;
                }
                _ => return Err(self.err("invalid escape")),
            };
            self.i += 1;
            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn agrees_with_the_protocol_parser() {
        for src in [
            r#"{"ok":true,"bindings":[{"name":"b0","type":"forall a. a -> a"}],"n":-1.5e3}"#,
            r#"["A😀\n\"x\"", [], {}, null, false]"#,
        ] {
            assert_eq!(
                super::parse(src).unwrap(),
                freezeml_service::Json::parse(src).unwrap()
            );
        }
    }
}
