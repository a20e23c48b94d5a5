package tz

import (
	"testing"
	"testing/quick"
	"time"
)

func TestOffsetNormalize(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		in   Offset
		want Offset
	}{
		{"zero", 0, 0},
		{"in range positive", 5, 5},
		{"in range negative", -7, -7},
		{"max", 12, 12},
		{"min", -11, -11},
		{"wrap high", 13, -11},
		{"wrap low", -12, 12},
		{"wrap full circle", 24, 0},
		{"wrap negative full circle", -24, 0},
		{"wrap far", 37, -11},
		{"wrap far negative", -36, 12},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.in.Normalize(); got != tt.want {
				t.Errorf("Offset(%d).Normalize() = %d, want %d", tt.in, got, tt.want)
			}
		})
	}
}

func TestOffsetNormalizeProperties(t *testing.T) {
	t.Parallel()
	inRange := func(o int16) bool {
		n := Offset(o).Normalize()
		return n >= MinOffset && n <= MaxOffset
	}
	if err := quick.Check(inRange, nil); err != nil {
		t.Errorf("normalized offset out of range: %v", err)
	}
	congruent := func(o int16) bool {
		n := Offset(o).Normalize()
		diff := int(Offset(o)) - int(n)
		return diff%HoursPerDay == 0
	}
	if err := quick.Check(congruent, nil); err != nil {
		t.Errorf("normalization not congruent mod 24: %v", err)
	}
}

func TestOffsetString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		in   Offset
		want string
	}{
		{0, "UTC"},
		{1, "UTC+1"},
		{12, "UTC+12"},
		{-6, "UTC-6"},
		{-11, "UTC-11"},
		{13, "UTC-11"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("Offset(%d).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestCircularDistance(t *testing.T) {
	t.Parallel()
	tests := []struct {
		a, b Offset
		want int
	}{
		{0, 0, 0},
		{1, 2, 1},
		{-11, 12, 1},
		{12, -11, 1},
		{0, 12, 12},
		{-6, 6, 12},
		{-3, 4, 7},
		{8, -7, 9},
	}
	for _, tt := range tests {
		if got := tt.a.CircularDistance(tt.b); got != tt.want {
			t.Errorf("CircularDistance(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := tt.b.CircularDistance(tt.a); got != tt.want {
			t.Errorf("CircularDistance(%v, %v) = %d, want %d (symmetry)", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestCircularDistanceProperties(t *testing.T) {
	t.Parallel()
	bounded := func(a, b int16) bool {
		d := Offset(a).CircularDistance(Offset(b))
		return d >= 0 && d <= 12
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Errorf("circular distance out of [0,12]: %v", err)
	}
	identity := func(a int16) bool {
		return Offset(a).CircularDistance(Offset(a)) == 0
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("d(a,a) != 0: %v", err)
	}
}

func TestAllOffsets(t *testing.T) {
	t.Parallel()
	all := AllOffsets()
	if len(all) != HoursPerDay {
		t.Fatalf("AllOffsets() has %d entries, want %d", len(all), HoursPerDay)
	}
	seen := make(map[Offset]bool)
	for _, o := range all {
		if o != o.Normalize() {
			t.Errorf("offset %d not normalized", o)
		}
		if seen[o] {
			t.Errorf("duplicate offset %d", o)
		}
		seen[o] = true
	}
}

func TestNthSunday(t *testing.T) {
	t.Parallel()
	tests := []struct {
		year  int
		month time.Month
		n     int
		want  string
	}{
		// 2017 calendar facts.
		{2017, time.March, -1, "2017-03-26"},   // EU DST start 2017
		{2017, time.October, -1, "2017-10-29"}, // EU DST end 2017
		{2017, time.October, 1, "2017-10-01"},
		{2017, time.February, 3, "2017-02-19"},
		{2016, time.March, -1, "2016-03-27"},
		{2018, time.March, -1, "2018-03-25"},
	}
	for _, tt := range tests {
		got := nthSunday(tt.year, tt.month, tt.n)
		if got.Format("2006-01-02") != tt.want {
			t.Errorf("nthSunday(%d, %v, %d) = %s, want %s",
				tt.year, tt.month, tt.n, got.Format("2006-01-02"), tt.want)
		}
		if got.Weekday() != time.Sunday {
			t.Errorf("nthSunday(%d, %v, %d) is a %v", tt.year, tt.month, tt.n, got.Weekday())
		}
	}
}

func TestNorthernDSTWindow(t *testing.T) {
	t.Parallel()
	de, err := ByCode("de")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		instant string
		inDST   bool
		offset  Offset
	}{
		{"2017-01-15T12:00:00Z", false, 1},
		{"2017-03-25T12:00:00Z", false, 1}, // day before last Sunday of March
		{"2017-03-26T12:00:00Z", true, 2},  // DST starts
		{"2017-07-01T12:00:00Z", true, 2},
		{"2017-10-28T12:00:00Z", true, 2},
		{"2017-10-29T12:00:00Z", false, 1}, // DST ends
		{"2017-12-25T12:00:00Z", false, 1},
	}
	for _, tt := range tests {
		instant, err := time.Parse(time.RFC3339, tt.instant)
		if err != nil {
			t.Fatal(err)
		}
		if got := de.DST.InEffect(instant, de.StandardOffset); got != tt.inDST {
			t.Errorf("Germany DST at %s = %v, want %v", tt.instant, got, tt.inDST)
		}
		if got := de.OffsetAt(instant); got != tt.offset {
			t.Errorf("Germany offset at %s = %v, want %v", tt.instant, got, tt.offset)
		}
	}
}

func TestSouthernDSTWindow(t *testing.T) {
	t.Parallel()
	br, err := ByCode("br")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		instant string
		inDST   bool
	}{
		{"2017-01-15T12:00:00Z", true},  // southern summer
		{"2017-06-15T12:00:00Z", false}, // southern winter
		{"2017-09-30T12:00:00Z", false},
		{"2017-10-02T12:00:00Z", true}, // after first Sunday of October
		{"2017-12-25T12:00:00Z", true},
		{"2018-02-19T12:00:00Z", false}, // after third Sunday of February
	}
	for _, tt := range tests {
		instant, err := time.Parse(time.RFC3339, tt.instant)
		if err != nil {
			t.Fatal(err)
		}
		if got := br.DST.InEffect(instant, br.StandardOffset); got != tt.inDST {
			t.Errorf("Brazil DST at %s = %v, want %v", tt.instant, got, tt.inDST)
		}
	}
}

func TestNoDSTRegions(t *testing.T) {
	t.Parallel()
	for _, code := range []string{"jp", "my", "tr", "ru-msk", "ae"} {
		r, err := ByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []time.Month{time.January, time.April, time.July, time.November} {
			instant := time.Date(2017, m, 15, 12, 0, 0, 0, time.UTC)
			if r.OffsetAt(instant) != r.StandardOffset {
				t.Errorf("%s offset in %v = %v, want standard %v",
					r.Name, m, r.OffsetAt(instant), r.StandardOffset)
			}
		}
		if r.Hemisphere() != HemisphereNone {
			t.Errorf("%s hemisphere = %v, want none", r.Name, r.Hemisphere())
		}
	}
}

func TestLocalHour(t *testing.T) {
	t.Parallel()
	jp, err := ByCode("jp")
	if err != nil {
		t.Fatal(err)
	}
	instant := time.Date(2017, time.June, 1, 20, 0, 0, 0, time.UTC)
	if got := jp.LocalTime(instant).Hour(); got != 5 {
		t.Errorf("Japan local hour at 20:00 UTC = %d, want 5", got)
	}
	de, err := ByCode("de")
	if err != nil {
		t.Fatal(err)
	}
	// June: Germany in DST, UTC+2.
	if got := de.LocalTime(instant).Hour(); got != 22 {
		t.Errorf("Germany local hour at 20:00 UTC in June = %d, want 22", got)
	}
}

func TestHolidayWindow(t *testing.T) {
	t.Parallel()
	w := HolidayWindow{StartMonth: time.December, StartDay: 20, EndMonth: time.January, EndDay: 6}
	tests := []struct {
		month time.Month
		day   int
		want  bool
	}{
		{time.December, 19, false},
		{time.December, 20, true},
		{time.December, 31, true},
		{time.January, 1, true},
		{time.January, 6, true},
		{time.January, 7, false},
		{time.July, 15, false},
	}
	for _, tt := range tests {
		if got := w.Contains(tt.month, tt.day); got != tt.want {
			t.Errorf("Contains(%v, %d) = %v, want %v", tt.month, tt.day, got, tt.want)
		}
	}

	nonWrap := HolidayWindow{StartMonth: time.August, StartDay: 1, EndMonth: time.August, EndDay: 15}
	if !nonWrap.Contains(time.August, 10) {
		t.Error("non-wrapping window should contain Aug 10")
	}
	if nonWrap.Contains(time.July, 31) || nonWrap.Contains(time.August, 16) {
		t.Error("non-wrapping window boundaries leak")
	}
}

func TestRegionIsHoliday(t *testing.T) {
	t.Parallel()
	de, err := ByCode("de")
	if err != nil {
		t.Fatal(err)
	}
	if !de.IsHoliday(time.Date(2017, time.December, 25, 12, 0, 0, 0, time.UTC)) {
		t.Error("Dec 25 should be a German holiday")
	}
	if de.IsHoliday(time.Date(2017, time.May, 10, 12, 0, 0, 0, time.UTC)) {
		t.Error("May 10 should not be a German holiday")
	}
}

func TestCatalogueIntegrity(t *testing.T) {
	t.Parallel()
	cat := Catalogue()
	if len(cat) == 0 {
		t.Fatal("empty catalogue")
	}
	codes := make(map[string]bool)
	for _, r := range cat {
		if r.Name == "" || r.Code == "" {
			t.Errorf("region with empty name/code: %+v", r)
		}
		if codes[r.Code] {
			t.Errorf("duplicate code %q", r.Code)
		}
		codes[r.Code] = true
		if r.StandardOffset != r.StandardOffset.Normalize() {
			t.Errorf("%s: non-normalized standard offset %d", r.Name, r.StandardOffset)
		}
		if r.DST.Observed && r.DST.Hemisphere == HemisphereNone {
			t.Errorf("%s: observes DST but has no hemisphere", r.Name)
		}
	}
}

func TestTableIRegions(t *testing.T) {
	t.Parallel()
	regions := TableIRegions()
	if len(regions) != 14 {
		t.Fatalf("TableIRegions() has %d entries, want 14", len(regions))
	}
	wantOffsets := map[string]Offset{
		"Brazil": -3, "California": -8, "Finland": 2, "France": 1,
		"Germany": 1, "Illinois": -6, "Italy": 1, "Japan": 9,
		"Malaysia": 8, "New South Wales": 10, "New York": -5,
		"Poland": 1, "Turkey": 3, "United Kingdom": 0,
	}
	for _, r := range regions {
		want, ok := wantOffsets[r.Name]
		if !ok {
			t.Errorf("unexpected region %q", r.Name)
			continue
		}
		if r.StandardOffset != want {
			t.Errorf("%s standard offset = %d, want %d", r.Name, r.StandardOffset, want)
		}
	}
}

func TestByCodeAndByName(t *testing.T) {
	t.Parallel()
	if _, err := ByCode("nope"); err == nil {
		t.Error("ByCode(nope) should fail")
	}
	if _, err := ByName("Atlantis"); err == nil {
		t.Error("ByName(Atlantis) should fail")
	}
	r, err := ByName("Malaysia")
	if err != nil {
		t.Fatalf("ByName(Malaysia): %v", err)
	}
	if r.Code != "my" {
		t.Errorf("Malaysia code = %q, want my", r.Code)
	}
}

func TestHemisphereString(t *testing.T) {
	t.Parallel()
	if HemisphereNorth.String() != "north" || HemisphereSouth.String() != "south" || HemisphereNone.String() != "none" {
		t.Error("hemisphere strings wrong")
	}
	if Hemisphere(42).String() != "Hemisphere(42)" {
		t.Errorf("unknown hemisphere string = %q", Hemisphere(42).String())
	}
}
