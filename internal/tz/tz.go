// Package tz implements the time-zone and daylight-saving-time model used
// throughout the reproduction.
//
// The paper reasons about the 24 integer UTC offsets ("time zones of the
// world") and about daylight saving time (DST) as observed in the northern
// and the southern hemisphere. This package provides:
//
//   - Offset: an integer UTC offset in hours, normalized to [-11, +12];
//   - DSTRule: a hemisphere-dependent DST window;
//   - Region: a named region (country or state) with a base offset, a DST
//     rule and a holiday calendar;
//   - a catalogue of the 14 regions of Table I plus the additional regions
//     discussed in the evaluation (Russia/UTC+3, the Dream Market and Pedo
//     Support Community components, ...).
//
// The package deliberately does not depend on the IANA tz database: the
// paper's methodology only needs whole-hour offsets and the coarse
// March-October (northern) versus October-February (southern) DST windows,
// and an explicit model keeps the reproduction self-contained and
// deterministic.
package tz

import (
	"fmt"
	"time"
)

// HoursPerDay is the number of hourly bins in an activity profile.
const HoursPerDay = 24

// Offset is an integer UTC offset in whole hours.
//
// The paper works with the 24 canonical time zones UTC-11 ... UTC+12. An
// Offset outside that range is normalized modulo 24 into it (UTC+13 is the
// same wall-clock zone as UTC-11).
type Offset int

// MinOffset and MaxOffset bound the canonical offset range.
const (
	MinOffset Offset = -11
	MaxOffset Offset = 12
)

// Normalize maps o into the canonical range [-11, +12] modulo 24.
func (o Offset) Normalize() Offset {
	v := int(o) % HoursPerDay
	if v > int(MaxOffset) {
		v -= HoursPerDay
	}
	if v < int(MinOffset) {
		v += HoursPerDay
	}
	return Offset(v)
}

// String renders the offset in the paper's notation, e.g. "UTC+1", "UTC-6"
// or "UTC".
func (o Offset) String() string {
	n := o.Normalize()
	switch {
	case n == 0:
		return "UTC"
	case n > 0:
		return fmt.Sprintf("UTC+%d", int(n))
	default:
		return fmt.Sprintf("UTC%d", int(n))
	}
}

// CircularDistance returns the distance in hours between two offsets on the
// 24-hour circle, in [0, 12].
func (o Offset) CircularDistance(other Offset) int {
	d := int(o.Normalize()) - int(other.Normalize())
	if d < 0 {
		d = -d
	}
	if d > HoursPerDay/2 {
		d = HoursPerDay - d
	}
	return d
}

// AllOffsets returns the 24 canonical offsets in ascending order,
// UTC-11 ... UTC+12.
func AllOffsets() []Offset {
	out := make([]Offset, 0, HoursPerDay)
	for o := MinOffset; o <= MaxOffset; o++ {
		out = append(out, o)
	}
	return out
}

// Hemisphere tells which DST convention a region follows.
type Hemisphere int

// Hemisphere values. A region with HemisphereNone either straddles the
// equator or simply does not observe DST.
const (
	HemisphereNone Hemisphere = iota + 1
	HemisphereNorth
	HemisphereSouth
)

// String implements fmt.Stringer.
func (h Hemisphere) String() string {
	switch h {
	case HemisphereNorth:
		return "north"
	case HemisphereSouth:
		return "south"
	case HemisphereNone:
		return "none"
	default:
		return fmt.Sprintf("Hemisphere(%d)", int(h))
	}
}

// DSTRule describes when a region advances its clock by one hour.
//
// The reproduction uses the coarse model from the paper (§V-F): northern
// regions observe DST from (about) late March to late October, southern
// regions from (about) early October to mid February. Rules are expressed
// as "the n-th Sunday of a month" boundaries.
type DSTRule struct {
	// Observed is false for regions that do not use DST at all
	// (e.g. Japan, Malaysia, Turkey after 2016).
	Observed bool
	// Hemisphere selects the window orientation; it must be
	// HemisphereNorth or HemisphereSouth when Observed is true.
	Hemisphere Hemisphere
	// StartMonth/StartWeek and EndMonth/EndWeek give the Sunday-based
	// boundaries. Week > 0 counts from the start of the month (1 = first
	// Sunday); Week = -1 means the last Sunday of the month.
	StartMonth time.Month
	StartWeek  int
	EndMonth   time.Month
	EndWeek    int
}

// NorthernDST is the standard EU/US-style rule: DST between the last Sunday
// of March and the last Sunday of October.
func NorthernDST() DSTRule {
	return DSTRule{
		Observed:   true,
		Hemisphere: HemisphereNorth,
		StartMonth: time.March, StartWeek: -1,
		EndMonth: time.October, EndWeek: -1,
	}
}

// SouthernDST is the paper's southern-hemisphere rule: DST between the
// first Sunday of October and the third Sunday of February.
func SouthernDST() DSTRule {
	return DSTRule{
		Observed:   true,
		Hemisphere: HemisphereSouth,
		StartMonth: time.October, StartWeek: 1,
		EndMonth: time.February, EndWeek: 3,
	}
}

// NoDST is the rule of regions that keep standard time all year.
func NoDST() DSTRule {
	return DSTRule{Observed: false, Hemisphere: HemisphereNone}
}

// nthSunday returns the date (at 00:00 UTC) of the n-th Sunday of the given
// month and year; n = -1 selects the last Sunday.
func nthSunday(year int, month time.Month, n int) time.Time {
	if n == -1 {
		// Last Sunday: walk back from the last day of the month.
		last := time.Date(year, month+1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, -1)
		back := int(last.Weekday()) // Sunday == 0
		return last.AddDate(0, 0, -back)
	}
	first := time.Date(year, month, 1, 0, 0, 0, 0, time.UTC)
	fwd := (7 - int(first.Weekday())) % 7 // days until first Sunday
	return first.AddDate(0, 0, fwd+7*(n-1))
}

// InEffect reports whether DST is in effect under rule r at UTC instant t
// for a region whose standard offset is base. The comparison is done on the
// region's standard local calendar.
func (r DSTRule) InEffect(t time.Time, base Offset) bool {
	if !r.Observed {
		return false
	}
	local := t.Add(time.Duration(base.Normalize()) * time.Hour)
	y := local.Year()
	start := nthSunday(y, r.StartMonth, r.StartWeek)
	end := nthSunday(y, r.EndMonth, r.EndWeek)
	switch r.Hemisphere {
	case HemisphereSouth:
		// Window wraps the new year: Oct(y) .. Feb(y+1). At instant
		// `local` we are inside DST either if we are past this year's
		// start, or before this year's end (which belongs to the window
		// started the previous year).
		return !local.Before(start) || local.Before(end)
	default:
		return !local.Before(start) && local.Before(end)
	}
}

// Region is a geographic region with a known time zone, DST behaviour and
// holiday calendar. It corresponds to the "countries and states" rows of
// Table I and to the additional regions of the evaluation.
type Region struct {
	// Name is the human-readable name used by the paper
	// (e.g. "Germany", "New South Wales").
	Name string
	// Code is a short stable identifier (e.g. "de", "us-ca").
	Code string
	// StandardOffset is the region's UTC offset outside DST.
	StandardOffset Offset
	// DST is the region's daylight-saving rule.
	DST DSTRule
	// Holidays lists the yearly low-activity windows filtered out when
	// building region profiles (§IV).
	Holidays []HolidayWindow
}

// HolidayWindow is a yearly recurring low-activity period, expressed as
// inclusive month/day boundaries on the region's local calendar. A window
// may wrap the end of the year (e.g. Dec 20 - Jan 6).
type HolidayWindow struct {
	Name       string
	StartMonth time.Month
	StartDay   int
	EndMonth   time.Month
	EndDay     int
}

// Contains reports whether the local date (month, day) falls inside the
// window, handling year-wrapping windows.
func (w HolidayWindow) Contains(month time.Month, day int) bool {
	start := int(w.StartMonth)*100 + w.StartDay
	end := int(w.EndMonth)*100 + w.EndDay
	cur := int(month)*100 + day
	if start <= end {
		return cur >= start && cur <= end
	}
	return cur >= start || cur <= end
}

// OffsetAt returns the region's effective UTC offset at instant t,
// accounting for DST.
func (r Region) OffsetAt(t time.Time) Offset {
	o := r.StandardOffset
	if r.DST.InEffect(t, r.StandardOffset) {
		o++
	}
	return o.Normalize()
}

// LocalTime converts a UTC instant to the region's civil local time,
// represented as a time.Time still carrying the UTC location (only the
// wall-clock fields are meaningful).
func (r Region) LocalTime(t time.Time) time.Time {
	return t.Add(time.Duration(r.OffsetAt(t)) * time.Hour)
}

// IsHoliday reports whether UTC instant t falls inside one of the region's
// holiday windows on the local calendar.
func (r Region) IsHoliday(t time.Time) bool {
	local := r.LocalTime(t)
	for _, w := range r.Holidays {
		if w.Contains(local.Month(), local.Day()) {
			return true
		}
	}
	return false
}

// Hemisphere returns the hemisphere the region's DST rule reveals,
// HemisphereNone if the region does not observe DST.
func (r Region) Hemisphere() Hemisphere {
	if !r.DST.Observed {
		return HemisphereNone
	}
	return r.DST.Hemisphere
}
