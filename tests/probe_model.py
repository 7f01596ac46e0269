"""An order-free model of a linear probing table, in plain Python loops, as a
test oracle that shares no code with `linprobe.probing`."""


def carry_model(counts):
    """For the table whose per-slot hash histogram is `counts` (with at least
    one empty slot): the total carry, and each slot's distance to the first
    empty slot at or after it.

    The carry out of slot i, c_i = max(0, c_{i-1} + counts_i - 1), is the
    number of keys displaced past slot i, so a build in any order takes
    n + sum(c_i) insert probes; slot i is empty iff c_{i-1} + counts_i = 0.
    The loop runs two laps, so that slot 0 takes the carry out of slot t - 1.
    """
    t = len(counts)
    carry, total, empty = 0, 0, []
    for lap in range(2):
        for c in map(int, counts):
            if lap:
                empty.append(carry + c == 0)
            carry = max(0, carry + c - 1)
            total += lap * carry
    to_empty, distance = [0] * t, 0
    for i in reversed(range(2 * t)):  # exact from the first empty slot down
        distance = 0 if empty[i % t] else distance + 1
        to_empty[i % t] = distance
    return total, to_empty
