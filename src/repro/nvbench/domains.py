"""Domain schema templates used to synthesise the database catalog.

Each template describes a realistic application domain (HR, cinema, university,
retail, ...) with typed tables and foreign keys.  The generator expands the
templates into ~104 concrete databases by creating numbered variants, matching
the scale reported in the paper's Figure 2 (104 databases, 552 tables, ~3050
columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.database.schema import ColumnType, DatabaseSchema, build_schema

TEXT = ColumnType.TEXT
NUMBER = ColumnType.NUMBER
DATE = ColumnType.DATE
BOOLEAN = ColumnType.BOOLEAN

#: A column spec is (name, type, semantic tag).
ColumnSpec = Tuple[str, ColumnType, str]
TableSpec = Tuple[str, Sequence[ColumnSpec]]
ForeignKeySpec = Tuple[str, str, str, str]


@dataclass(frozen=True)
class DomainTemplate:
    """A reusable domain schema blueprint."""

    name: str
    tables: Tuple[TableSpec, ...]
    foreign_keys: Tuple[ForeignKeySpec, ...] = ()

    def instantiate(self, suffix: int) -> DatabaseSchema:
        """Create a concrete database schema named ``{name}_{suffix}``."""
        return build_schema(
            name=f"{self.name}_{suffix}",
            tables=self.tables,
            foreign_keys=self.foreign_keys,
            domain=self.name,
        )


def _t(name: str, *columns: ColumnSpec) -> TableSpec:
    return (name, columns)


DOMAIN_TEMPLATES: Tuple[DomainTemplate, ...] = (
    DomainTemplate(
        name="hr",
        tables=(
            _t(
                "employees",
                ("EMPLOYEE_ID", NUMBER, "id"),
                ("FIRST_NAME", TEXT, "first_name"),
                ("LAST_NAME", TEXT, "last_name"),
                ("HIRE_DATE", DATE, "date"),
                ("SALARY", NUMBER, "salary"),
                ("COMMISSION_PCT", NUMBER, "percentage"),
                ("JOB_ID", NUMBER, "id"),
                ("DEPARTMENT_ID", NUMBER, "id"),
                ("MANAGER_ID", NUMBER, "id"),
            ),
            _t(
                "departments",
                ("DEPARTMENT_ID", NUMBER, "id"),
                ("DEPARTMENT_NAME", TEXT, "department"),
                ("MANAGER_ID", NUMBER, "id"),
                ("LOCATION_ID", NUMBER, "id"),
            ),
            _t(
                "jobs",
                ("JOB_ID", NUMBER, "id"),
                ("JOB_TITLE", TEXT, "job_title"),
                ("MIN_SALARY", NUMBER, "salary"),
                ("MAX_SALARY", NUMBER, "salary"),
            ),
            _t(
                "job_history",
                ("HISTORY_ID", NUMBER, "id"),
                ("EMPLOYEE_ID", NUMBER, "id"),
                ("START_DATE", DATE, "date"),
                ("END_DATE", DATE, "date"),
                ("JOB_ID", NUMBER, "id"),
                ("DEPARTMENT_ID", NUMBER, "id"),
            ),
            _t(
                "locations",
                ("LOCATION_ID", NUMBER, "id"),
                ("CITY", TEXT, "city"),
                ("COUNTRY_NAME", TEXT, "country"),
                ("POSTAL_CODE", NUMBER, "count"),
            ),
        ),
        foreign_keys=(
            ("employees", "DEPARTMENT_ID", "departments", "DEPARTMENT_ID"),
            ("employees", "JOB_ID", "jobs", "JOB_ID"),
            ("job_history", "EMPLOYEE_ID", "employees", "EMPLOYEE_ID"),
            ("job_history", "JOB_ID", "jobs", "JOB_ID"),
            ("departments", "LOCATION_ID", "locations", "LOCATION_ID"),
        ),
    ),
    DomainTemplate(
        name="cinema",
        tables=(
            _t(
                "cinema",
                ("Cinema_ID", NUMBER, "id"),
                ("Name", TEXT, "name"),
                ("Openning_year", NUMBER, "year"),
                ("Capacity", NUMBER, "capacity"),
                ("Location", TEXT, "city"),
            ),
            _t(
                "film",
                ("Film_ID", NUMBER, "id"),
                ("Title", TEXT, "name"),
                ("Directed_by", TEXT, "last_name"),
                ("Gross_in_dollar", NUMBER, "budget"),
                ("Release_year", NUMBER, "year"),
            ),
            _t(
                "schedule",
                ("Schedule_ID", NUMBER, "id"),
                ("Cinema_ID", NUMBER, "id"),
                ("Film_ID", NUMBER, "id"),
                ("Show_times_per_day", NUMBER, "count"),
                ("Price", NUMBER, "price"),
                ("Date", DATE, "date"),
            ),
            _t(
                "staff",
                ("Staff_ID", NUMBER, "id"),
                ("Staff_name", TEXT, "first_name"),
                ("Cinema_ID", NUMBER, "id"),
                ("Age", NUMBER, "age"),
                ("Monthly_pay", NUMBER, "salary"),
            ),
        ),
        foreign_keys=(
            ("schedule", "Cinema_ID", "cinema", "Cinema_ID"),
            ("schedule", "Film_ID", "film", "Film_ID"),
            ("staff", "Cinema_ID", "cinema", "Cinema_ID"),
        ),
    ),
    DomainTemplate(
        name="pets",
        tables=(
            _t(
                "Student",
                ("StuID", NUMBER, "id"),
                ("LName", TEXT, "last_name"),
                ("Fname", TEXT, "first_name"),
                ("Age", NUMBER, "age"),
                ("Sex", TEXT, "category"),
                ("Major", NUMBER, "count"),
                ("Advisor", NUMBER, "id"),
                ("city_code", TEXT, "city"),
            ),
            _t(
                "Pets",
                ("PetID", NUMBER, "id"),
                ("PetType", TEXT, "category"),
                ("pet_age", NUMBER, "age"),
                ("weight", NUMBER, "weight"),
            ),
            _t(
                "Has_Pet",
                ("Record_ID", NUMBER, "id"),
                ("StuID", NUMBER, "id"),
                ("PetID", NUMBER, "id"),
            ),
            _t(
                "Clinic_Visit",
                ("Visit_ID", NUMBER, "id"),
                ("PetID", NUMBER, "id"),
                ("Visit_date", DATE, "date"),
                ("Cost", NUMBER, "price"),
            ),
        ),
        foreign_keys=(
            ("Has_Pet", "StuID", "Student", "StuID"),
            ("Has_Pet", "PetID", "Pets", "PetID"),
            ("Clinic_Visit", "PetID", "Pets", "PetID"),
        ),
    ),
    DomainTemplate(
        name="university",
        tables=(
            _t(
                "instructor",
                ("instructor_id", NUMBER, "id"),
                ("name", TEXT, "last_name"),
                ("dept_name", TEXT, "department"),
                ("salary", NUMBER, "salary"),
                ("hire_year", NUMBER, "year"),
            ),
            _t(
                "student",
                ("student_id", NUMBER, "id"),
                ("student_name", TEXT, "first_name"),
                ("dept_name", TEXT, "department"),
                ("tot_cred", NUMBER, "count"),
                ("enroll_date", DATE, "date"),
            ),
            _t(
                "course",
                ("course_id", NUMBER, "id"),
                ("title", TEXT, "name"),
                ("dept_name", TEXT, "department"),
                ("credits", NUMBER, "rating"),
            ),
            _t(
                "takes",
                ("takes_id", NUMBER, "id"),
                ("student_id", NUMBER, "id"),
                ("course_id", NUMBER, "id"),
                ("grade", NUMBER, "rating"),
                ("semester_year", NUMBER, "year"),
            ),
            _t(
                "department",
                ("dept_id", NUMBER, "id"),
                ("dept_name", TEXT, "department"),
                ("building", TEXT, "name"),
                ("budget", NUMBER, "budget"),
            ),
        ),
        foreign_keys=(
            ("takes", "student_id", "student", "student_id"),
            ("takes", "course_id", "course", "course_id"),
        ),
    ),
    DomainTemplate(
        name="retail",
        tables=(
            _t(
                "products",
                ("product_id", NUMBER, "id"),
                ("product_name", TEXT, "product"),
                ("category", TEXT, "category"),
                ("unit_price", NUMBER, "price"),
                ("stock_quantity", NUMBER, "count"),
            ),
            _t(
                "customers",
                ("customer_id", NUMBER, "id"),
                ("customer_name", TEXT, "first_name"),
                ("city", TEXT, "city"),
                ("country", TEXT, "country"),
                ("join_date", DATE, "date"),
            ),
            _t(
                "orders",
                ("order_id", NUMBER, "id"),
                ("customer_id", NUMBER, "id"),
                ("order_date", DATE, "date"),
                ("order_status", TEXT, "status"),
                ("total_amount", NUMBER, "price"),
            ),
            _t(
                "order_items",
                ("item_id", NUMBER, "id"),
                ("order_id", NUMBER, "id"),
                ("product_id", NUMBER, "id"),
                ("quantity", NUMBER, "count"),
                ("discount", NUMBER, "percentage"),
            ),
            _t(
                "suppliers",
                ("supplier_id", NUMBER, "id"),
                ("supplier_name", TEXT, "name"),
                ("country", TEXT, "country"),
                ("rating", NUMBER, "rating"),
            ),
        ),
        foreign_keys=(
            ("orders", "customer_id", "customers", "customer_id"),
            ("order_items", "order_id", "orders", "order_id"),
            ("order_items", "product_id", "products", "product_id"),
        ),
    ),
    DomainTemplate(
        name="flight",
        tables=(
            _t(
                "airlines",
                ("airline_id", NUMBER, "id"),
                ("airline_name", TEXT, "name"),
                ("country", TEXT, "country"),
                ("fleet_size", NUMBER, "count"),
            ),
            _t(
                "airports",
                ("airport_id", NUMBER, "id"),
                ("airport_name", TEXT, "name"),
                ("city", TEXT, "city"),
                ("elevation", NUMBER, "distance"),
            ),
            _t(
                "flights",
                ("flight_id", NUMBER, "id"),
                ("airline_id", NUMBER, "id"),
                ("source_airport", NUMBER, "id"),
                ("destination_airport", NUMBER, "id"),
                ("departure_date", DATE, "date"),
                ("price", NUMBER, "price"),
                ("duration_minutes", NUMBER, "distance"),
            ),
            _t(
                "passengers",
                ("passenger_id", NUMBER, "id"),
                ("passenger_name", TEXT, "first_name"),
                ("age", NUMBER, "age"),
                ("nationality", TEXT, "country"),
            ),
            _t(
                "bookings",
                ("booking_id", NUMBER, "id"),
                ("flight_id", NUMBER, "id"),
                ("passenger_id", NUMBER, "id"),
                ("booking_date", DATE, "date"),
                ("seat_class", TEXT, "category"),
                ("fare", NUMBER, "price"),
            ),
        ),
        foreign_keys=(
            ("flights", "airline_id", "airlines", "airline_id"),
            ("bookings", "flight_id", "flights", "flight_id"),
            ("bookings", "passenger_id", "passengers", "passenger_id"),
        ),
    ),
    DomainTemplate(
        name="hospital",
        tables=(
            _t(
                "physician",
                ("physician_id", NUMBER, "id"),
                ("physician_name", TEXT, "last_name"),
                ("position", TEXT, "job_title"),
                ("salary", NUMBER, "salary"),
            ),
            _t(
                "patient",
                ("patient_id", NUMBER, "id"),
                ("patient_name", TEXT, "first_name"),
                ("age", NUMBER, "age"),
                ("city", TEXT, "city"),
                ("insurance_status", TEXT, "status"),
            ),
            _t(
                "appointment",
                ("appointment_id", NUMBER, "id"),
                ("patient_id", NUMBER, "id"),
                ("physician_id", NUMBER, "id"),
                ("appointment_date", DATE, "date"),
                ("cost", NUMBER, "price"),
            ),
            _t(
                "department",
                ("department_id", NUMBER, "id"),
                ("department_name", TEXT, "department"),
                ("head_physician", NUMBER, "id"),
                ("annual_budget", NUMBER, "budget"),
            ),
            _t(
                "medication",
                ("medication_id", NUMBER, "id"),
                ("medication_name", TEXT, "product"),
                ("brand", TEXT, "name"),
                ("price", NUMBER, "price"),
            ),
        ),
        foreign_keys=(
            ("appointment", "patient_id", "patient", "patient_id"),
            ("appointment", "physician_id", "physician", "physician_id"),
        ),
    ),
    DomainTemplate(
        name="exhibition",
        tables=(
            _t(
                "artist",
                ("Artist_ID", NUMBER, "id"),
                ("Artist_Name", TEXT, "last_name"),
                ("Country", TEXT, "country"),
                ("Year_Join", NUMBER, "year"),
            ),
            _t(
                "exhibition",
                ("Exhibition_ID", NUMBER, "id"),
                ("Year", NUMBER, "year"),
                ("Theme", TEXT, "theme"),
                ("Artist_ID", NUMBER, "id"),
                ("Ticket_Price", NUMBER, "price"),
            ),
            _t(
                "exhibition_record",
                ("Record_ID", NUMBER, "id"),
                ("Exhibition_ID", NUMBER, "id"),
                ("Date", DATE, "date"),
                ("Attendance", NUMBER, "count"),
            ),
        ),
        foreign_keys=(
            ("exhibition", "Artist_ID", "artist", "Artist_ID"),
            ("exhibition_record", "Exhibition_ID", "exhibition", "Exhibition_ID"),
        ),
    ),
    DomainTemplate(
        name="soccer",
        tables=(
            _t(
                "team",
                ("Team_ID", NUMBER, "id"),
                ("Team_Name", TEXT, "name"),
                ("City", TEXT, "city"),
                ("Founded_Year", NUMBER, "year"),
                ("Stadium_Capacity", NUMBER, "capacity"),
            ),
            _t(
                "player",
                ("Player_ID", NUMBER, "id"),
                ("Player_Name", TEXT, "last_name"),
                ("Team_ID", NUMBER, "id"),
                ("Age", NUMBER, "age"),
                ("Goals", NUMBER, "count"),
                ("Weekly_Wage", NUMBER, "salary"),
            ),
            _t(
                "match",
                ("Match_ID", NUMBER, "id"),
                ("Home_Team", NUMBER, "id"),
                ("Away_Team", NUMBER, "id"),
                ("Match_Date", DATE, "date"),
                ("Attendance", NUMBER, "count"),
            ),
            _t(
                "coach",
                ("Coach_ID", NUMBER, "id"),
                ("Coach_Name", TEXT, "last_name"),
                ("Team_ID", NUMBER, "id"),
                ("Experience_Years", NUMBER, "age"),
            ),
        ),
        foreign_keys=(
            ("player", "Team_ID", "team", "Team_ID"),
            ("coach", "Team_ID", "team", "Team_ID"),
        ),
    ),
    DomainTemplate(
        name="library",
        tables=(
            _t(
                "book",
                ("Book_ID", NUMBER, "id"),
                ("Title", TEXT, "name"),
                ("Author", TEXT, "last_name"),
                ("Publication_Year", NUMBER, "year"),
                ("Pages", NUMBER, "count"),
                ("Category", TEXT, "category"),
            ),
            _t(
                "member",
                ("Member_ID", NUMBER, "id"),
                ("Member_Name", TEXT, "first_name"),
                ("Age", NUMBER, "age"),
                ("City", TEXT, "city"),
                ("Membership_Level", TEXT, "category"),
            ),
            _t(
                "loan",
                ("Loan_ID", NUMBER, "id"),
                ("Book_ID", NUMBER, "id"),
                ("Member_ID", NUMBER, "id"),
                ("Loan_Date", DATE, "date"),
                ("Fine_Amount", NUMBER, "price"),
            ),
            _t(
                "branch",
                ("Branch_ID", NUMBER, "id"),
                ("Branch_Name", TEXT, "name"),
                ("City", TEXT, "city"),
                ("Open_Year", NUMBER, "year"),
            ),
        ),
        foreign_keys=(
            ("loan", "Book_ID", "book", "Book_ID"),
            ("loan", "Member_ID", "member", "Member_ID"),
        ),
    ),
    DomainTemplate(
        name="concert",
        tables=(
            _t(
                "stadium",
                ("Stadium_ID", NUMBER, "id"),
                ("Stadium_Name", TEXT, "name"),
                ("Location", TEXT, "city"),
                ("Capacity", NUMBER, "capacity"),
                ("Average_Attendance", NUMBER, "count"),
            ),
            _t(
                "singer",
                ("Singer_ID", NUMBER, "id"),
                ("Singer_Name", TEXT, "first_name"),
                ("Country", TEXT, "country"),
                ("Age", NUMBER, "age"),
                ("Net_Worth", NUMBER, "budget"),
            ),
            _t(
                "concert",
                ("Concert_ID", NUMBER, "id"),
                ("Concert_Name", TEXT, "name"),
                ("Stadium_ID", NUMBER, "id"),
                ("Year", NUMBER, "year"),
                ("Ticket_Price", NUMBER, "price"),
            ),
            _t(
                "singer_in_concert",
                ("Entry_ID", NUMBER, "id"),
                ("Concert_ID", NUMBER, "id"),
                ("Singer_ID", NUMBER, "id"),
            ),
        ),
        foreign_keys=(
            ("concert", "Stadium_ID", "stadium", "Stadium_ID"),
            ("singer_in_concert", "Concert_ID", "concert", "Concert_ID"),
            ("singer_in_concert", "Singer_ID", "singer", "Singer_ID"),
        ),
    ),
    DomainTemplate(
        name="weather",
        tables=(
            _t(
                "station",
                ("Station_ID", NUMBER, "id"),
                ("Station_Name", TEXT, "name"),
                ("City", TEXT, "city"),
                ("Elevation", NUMBER, "distance"),
                ("Install_Year", NUMBER, "year"),
            ),
            _t(
                "reading",
                ("Reading_ID", NUMBER, "id"),
                ("Station_ID", NUMBER, "id"),
                ("Reading_Date", DATE, "date"),
                ("Temperature", NUMBER, "rating"),
                ("Humidity", NUMBER, "percentage"),
                ("Rainfall", NUMBER, "weight"),
            ),
            _t(
                "alert",
                ("Alert_ID", NUMBER, "id"),
                ("Station_ID", NUMBER, "id"),
                ("Alert_Type", TEXT, "category"),
                ("Alert_Date", DATE, "date"),
                ("Severity", NUMBER, "rating"),
            ),
        ),
        foreign_keys=(
            ("reading", "Station_ID", "station", "Station_ID"),
            ("alert", "Station_ID", "station", "Station_ID"),
        ),
    ),
    DomainTemplate(
        name="restaurant",
        tables=(
            _t(
                "restaurant",
                ("Restaurant_ID", NUMBER, "id"),
                ("Restaurant_Name", TEXT, "name"),
                ("City", TEXT, "city"),
                ("Cuisine", TEXT, "category"),
                ("Rating", NUMBER, "rating"),
                ("Open_Year", NUMBER, "year"),
            ),
            _t(
                "dish",
                ("Dish_ID", NUMBER, "id"),
                ("Dish_Name", TEXT, "product"),
                ("Restaurant_ID", NUMBER, "id"),
                ("Price", NUMBER, "price"),
                ("Calories", NUMBER, "count"),
            ),
            _t(
                "review",
                ("Review_ID", NUMBER, "id"),
                ("Restaurant_ID", NUMBER, "id"),
                ("Review_Date", DATE, "date"),
                ("Score", NUMBER, "rating"),
                ("Reviewer_City", TEXT, "city"),
            ),
            _t(
                "reservation",
                ("Reservation_ID", NUMBER, "id"),
                ("Restaurant_ID", NUMBER, "id"),
                ("Party_Size", NUMBER, "count"),
                ("Reservation_Date", DATE, "date"),
                ("Status", TEXT, "status"),
            ),
        ),
        foreign_keys=(
            ("dish", "Restaurant_ID", "restaurant", "Restaurant_ID"),
            ("review", "Restaurant_ID", "restaurant", "Restaurant_ID"),
            ("reservation", "Restaurant_ID", "restaurant", "Restaurant_ID"),
        ),
    ),
    DomainTemplate(
        name="energy",
        tables=(
            _t(
                "plant",
                ("Plant_ID", NUMBER, "id"),
                ("Plant_Name", TEXT, "name"),
                ("Fuel_Type", TEXT, "category"),
                ("Capacity_MW", NUMBER, "capacity"),
                ("Commission_Year", NUMBER, "year"),
                ("Country", TEXT, "country"),
            ),
            _t(
                "production",
                ("Production_ID", NUMBER, "id"),
                ("Plant_ID", NUMBER, "id"),
                ("Production_Date", DATE, "date"),
                ("Output_MWh", NUMBER, "capacity"),
                ("Efficiency", NUMBER, "percentage"),
            ),
            _t(
                "maintenance",
                ("Maintenance_ID", NUMBER, "id"),
                ("Plant_ID", NUMBER, "id"),
                ("Maintenance_Date", DATE, "date"),
                ("Cost", NUMBER, "budget"),
                ("Status", TEXT, "status"),
            ),
        ),
        foreign_keys=(
            ("production", "Plant_ID", "plant", "Plant_ID"),
            ("maintenance", "Plant_ID", "plant", "Plant_ID"),
        ),
    ),
)


def build_catalog_schemas(database_count: int = 104) -> List[DatabaseSchema]:
    """Expand the domain templates into ``database_count`` concrete schemas.

    Templates are cycled with increasing numeric suffixes (``hr_1``, ``hr_2``,
    ...), mirroring how Spider/nvBench contain several databases per domain.
    """
    schemas: List[DatabaseSchema] = []
    suffix_counter: Dict[str, int] = {}
    template_count = len(DOMAIN_TEMPLATES)
    for index in range(database_count):
        template = DOMAIN_TEMPLATES[index % template_count]
        suffix_counter[template.name] = suffix_counter.get(template.name, 0) + 1
        schemas.append(template.instantiate(suffix_counter[template.name]))
    return schemas
