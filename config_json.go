package epnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"time"

	"epnet/internal/scenario"
)

// Duration is the JSON form of every Config duration: a Go duration
// string ("250us", "1.5ms") on the wire, a time.Duration in hand. Bare
// numbers are accepted on input as nanoseconds.
type Duration = scenario.Duration

// configWire is Config's wire form, derived once from Config's own
// fields and json tags: the same fields in the same order, with every
// time.Duration retyped as Duration so it travels as a duration string.
// Inspector keeps its json:"-" tag and so has no wire form.
var configWire = func() reflect.Type {
	t := reflect.TypeOf(Config{})
	fields := make([]reflect.StructField, t.NumField())
	for i := range fields {
		fields[i] = t.Field(i)
		if fields[i].Type == reflect.TypeOf(time.Duration(0)) {
			fields[i].Type = reflect.TypeOf(Duration(0))
		}
	}
	return reflect.StructOf(fields)
}()

// convertFields copies every field of src into dst, converting between
// time.Duration and Duration where the two struct types differ.
func convertFields(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		dst.Field(i).Set(src.Field(i).Convert(dst.Field(i).Type()))
	}
}

// wire returns a pointer to c's wire form.
func (c *Config) wire() reflect.Value {
	w := reflect.New(configWire)
	convertFields(w.Elem(), reflect.ValueOf(c).Elem())
	return w
}

// MarshalJSON implements json.Marshaler with the snake_case wire form.
func (c Config) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.wire().Interface())
}

// UnmarshalJSON implements json.Unmarshaler strictly: unknown fields
// are rejected with a *ConfigFieldError naming the offender (so typos
// in a config file fail loudly instead of silently running defaults),
// and fields absent from the document keep the receiver's values —
// partial documents are overlays, which is what lets a scenario's
// config block override just the knobs it cares about.
func (c *Config) UnmarshalJSON(data []byte) error {
	w := c.wire()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(w.Interface()); err != nil {
		if f := unknownJSONField(err); f != "" {
			return fieldErr(f, "unknown config field %q", f)
		}
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			return fieldErr(te.Field, "cannot decode a JSON %s as %v", te.Value, te.Type)
		}
		return fieldErr("Config", "%v", err)
	}
	convertFields(reflect.ValueOf(c).Elem(), w.Elem())
	return nil
}

// unknownJSONField extracts the field name from encoding/json's
// DisallowUnknownFields error, which has no structured form.
func unknownJSONField(err error) string {
	const marker = `unknown field "`
	msg := err.Error()
	i := strings.Index(msg, marker)
	if i < 0 {
		return ""
	}
	rest := msg[i+len(marker):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
