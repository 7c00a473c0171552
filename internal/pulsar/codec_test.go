package pulsar

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// encodeMessage encodes m the way a publish does: the producer's
// encodeEntryInto, then the broker's stampEntry.
func encodeMessage(m Message) []byte {
	b := make([]byte, entrySize(m.Key, m.Topic, len(m.Payload)))
	encodeEntryInto(b, m.Key, m.Topic, m.Payload)
	stampEntry(b, m.Seq, m.PublishTime)
	return b
}

var codecCases = []Message{
	{Seq: 0, Key: "", Payload: nil, PublishTime: time.Unix(0, 0), Topic: "t"},
	{Seq: 42, Key: "user-7", Payload: []byte("hello"), PublishTime: time.Unix(1234, 5678), Topic: "events-partition-3"},
	{Seq: 1 << 40, Key: "ключ", Payload: bytes.Repeat([]byte{0, 1, 2, 0xff}, 100), PublishTime: time.Unix(1700000000, 999999999), Topic: strings.Repeat("long", 50)},
	{Seq: 9, Key: "{looks-like-json", Payload: []byte(`{"payload":"trap"}`), PublishTime: time.Unix(7, 7), Topic: "x"},
}

// sameMessage compares the fields the wire format carries.
func sameMessage(got, want Message) bool {
	return got.Seq == want.Seq && got.Key == want.Key && got.Topic == want.Topic &&
		bytes.Equal(got.Payload, want.Payload) && got.PublishTime.Equal(want.PublishTime)
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	for i, m := range codecCases {
		enc := encodeMessage(m)
		if enc[0] != codecVersion {
			t.Fatalf("case %d: version byte = 0x%02x", i, enc[0])
		}
		got, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !sameMessage(got, m) {
			t.Fatalf("case %d: round trip = %+v, want %+v", i, got, m)
		}
	}
}

func TestBinaryCodecSmallerThanJSON(t *testing.T) {
	m := Message{Seq: 123, Key: "k", Payload: bytes.Repeat([]byte("x"), 256), PublishTime: time.Unix(100, 0), Topic: "bench"}
	bin := encodeMessage(m)
	js, _ := json.Marshal(m)
	if len(bin) >= len(js) {
		t.Fatalf("binary entry (%d bytes) not smaller than JSON (%d bytes)", len(bin), len(js))
	}
}

// garbageEntries are malformed entries decodeMessage must reject.
func garbageEntries() [][]byte {
	enc := encodeMessage(Message{Seq: 1, Key: "k", Payload: []byte("p"), Topic: "t", PublishTime: time.Unix(1, 0)})
	return [][]byte{
		nil,                    // empty
		{0x7f},                 // unknown version
		[]byte(`{"seq":1}`),    // JSON is not an entry
		enc[:5],                // truncated header
		enc[:len(enc)-1],       // truncated payload
		append([]byte{}, 0x01), // version byte only
	}
}

func TestDecodeMessageRejectsGarbage(t *testing.T) {
	for i, b := range garbageEntries() {
		if _, err := decodeMessage(b); err == nil {
			t.Fatalf("case %d: decode of %v succeeded", i, b)
		}
	}
}

// FuzzDecodeMessage: arbitrary bytes never panic the decoder, and any entry
// a publish writes (encodeEntryInto + stampEntry) decodes to the same key,
// topic, payload, seq and publish time.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range codecCases {
		f.Add(encodeMessage(m), m.Key, m.Topic, m.Payload, m.Seq, m.PublishTime.UnixNano())
	}
	for _, b := range garbageEntries() {
		f.Add(b, "k", "t", []byte("p"), int64(1), int64(1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, key, topic string, payload []byte, seq, at int64) {
		_, _ = decodeMessage(raw)
		m := Message{Seq: seq, Key: key, Payload: payload, PublishTime: time.Unix(0, at), Topic: topic}
		got, err := decodeMessage(encodeMessage(m))
		if err != nil {
			t.Fatalf("decode of a valid entry: %v", err)
		}
		if !sameMessage(got, m) {
			t.Fatalf("round trip = %+v, want %+v", got, m)
		}
	})
}
